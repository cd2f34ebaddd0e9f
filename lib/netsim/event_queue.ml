(* A binary min-heap stored as a struct of arrays. Heap position [i]
   holds the key [(times.(i), seqs.(i))] and the index [slots.(i)] of
   its payload in [payloads]; a sift moves those three unboxed words
   and never the payload, so it does no allocation and hits no write
   barrier. A payload is written once, into a free slot, at push and
   overwritten with [filler] at [drop_min].

   [free] is the stack of vacant slots. Every slot is either vacant or
   referenced by exactly one live heap position, so the stack holds
   [capacity - len] entries and its top is [free.(capacity - len - 1)];
   it needs no separate depth. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable payloads : 'a array;
  mutable free : int array;
  mutable len : int;
  mutable next_seq : int;
  filler : 'a;
}

let create ~filler =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    payloads = [||];
    free = [||];
    len = 0;
    next_seq = 0;
    filler;
  }

let size t = t.len
let is_empty t = t.len = 0

let release t =
  if t.len = 0 then begin
    t.times <- [||];
    t.seqs <- [||];
    t.slots <- [||];
    t.payloads <- [||];
    t.free <- [||]
  end

(* Called when every slot is live (the free stack is empty): double
   the capacity and stack the new slots, lowest on top. *)
let grow t =
  let cap = Array.length t.times in
  let ncap = max 16 (2 * cap) in
  let extend a fill =
    let na = Array.make ncap fill in
    Array.blit a 0 na 0 cap;
    na
  in
  t.times <- extend t.times 0.0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.payloads <- extend t.payloads t.filler;
  t.free <- Array.init ncap (fun k -> ncap - 1 - k)

(* The sifts move a hole rather than swapping, and compare and move
   keys inline: a helper taking a [float] would box it at every call
   that is not inlined. *)

(* Sift the key [(time, seq, slot)] into the hole at [i] toward the
   root: parents later than it move down into the hole. *)
let sift_up t i ~time ~seq ~slot =
  let i = ref i and fin = ref false in
  while (not !fin) && !i > 0 do
    let p = (!i - 1) / 2 in
    let tp = t.times.(p) in
    if time < tp || (time = tp && seq < t.seqs.(p)) then begin
      t.times.(!i) <- tp;
      t.seqs.(!i) <- t.seqs.(p);
      t.slots.(!i) <- t.slots.(p);
      i := p
    end
    else fin := true
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.slots.(!i) <- slot

(* Sift the key at position [t.len] (just past the live heap) into the
   hole at the root toward the leaves: the earlier child moves up into
   the hole while it is earlier than the key. *)
let sift_down_last t =
  let last = t.len in
  let time = t.times.(last) and seq = t.seqs.(last) and slot = t.slots.(last) in
  let i = ref 0 and fin = ref false in
  while not !fin do
    let l = (2 * !i) + 1 in
    if l >= t.len then fin := true
    else begin
      let r = l + 1 in
      let c =
        if r < t.len then
          let tl = t.times.(l) and tr = t.times.(r) in
          if tr < tl || (tr = tl && t.seqs.(r) < t.seqs.(l)) then r else l
        else l
      in
      let tc = t.times.(c) in
      if tc < time || (tc = time && t.seqs.(c) < seq) then begin
        t.times.(!i) <- tc;
        t.seqs.(!i) <- t.seqs.(c);
        t.slots.(!i) <- t.slots.(c);
        i := c
      end
      else fin := true
    end
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.slots.(!i) <- slot

let reserve_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let push t ~time payload =
  if not (Float.is_finite time) then
    invalid_arg "Event_queue.push: time must be finite";
  if time < 0.0 then invalid_arg "Event_queue.push: negative time";
  if t.len = Array.length t.times then grow t;
  let slot = t.free.(Array.length t.times - t.len - 1) in
  t.payloads.(slot) <- payload;
  let seq = reserve_seq t in
  t.len <- t.len + 1;
  sift_up t (t.len - 1) ~time ~seq ~slot

let check_nonempty t fn =
  if t.len = 0 then invalid_arg ("Event_queue." ^ fn ^ ": empty queue")

let min_time t =
  check_nonempty t "min_time";
  t.times.(0)

let min_seq t =
  check_nonempty t "min_seq";
  t.seqs.(0)

let min_payload t =
  check_nonempty t "min_payload";
  t.payloads.(t.slots.(0))

let drop_min t =
  check_nonempty t "drop_min";
  let slot = t.slots.(0) in
  t.payloads.(slot) <- t.filler;
  t.free.(Array.length t.times - t.len) <- slot;
  t.len <- t.len - 1;
  if t.len > 0 then sift_down_last t

let vacant_slots_cleared t =
  let live = Array.make (Array.length t.payloads) false in
  for i = 0 to t.len - 1 do
    live.(t.slots.(i)) <- true
  done;
  let ok = ref true in
  Array.iteri
    (fun s p -> if (not live.(s)) && p != t.filler then ok := false)
    t.payloads;
  !ok

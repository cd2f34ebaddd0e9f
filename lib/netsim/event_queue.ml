(* A binary min-heap stored as a struct of arrays. Heap position [i]
   holds the key [(times.(i), seqs.(i))] and the index [slots.(i)] of
   its payload in the owner's payload table; a sift moves those three
   unboxed words and never the payload, so it does no allocation and
   hits no write barrier.

   [free] is the stack of vacant slots. Every slot is either vacant or
   referenced by exactly one live heap position, so the stack holds
   [capacity - len] entries and its top is [free.(capacity - len - 1)];
   it needs no separate depth. *)
module Keys = struct
  type t = {
    mutable times : float array;
    mutable seqs : int array;
    mutable slots : int array;
    mutable free : int array;
    mutable len : int;
  }

  let create () = { times = [||]; seqs = [||]; slots = [||]; free = [||]; len = 0 }
  let capacity k = Array.length k.times

  let release k =
    k.times <- [||];
    k.seqs <- [||];
    k.slots <- [||];
    k.free <- [||]

  (* Called when every slot is live (the free stack is empty): double
     the capacity and stack the new slots, lowest on top. *)
  let ensure k =
    let cap = capacity k in
    if k.len < cap then false
    else begin
      let ncap = max 16 (2 * cap) in
      let extend a fill =
        let na = Array.make ncap fill in
        Array.blit a 0 na 0 cap;
        na
      in
      k.times <- extend k.times 0.0;
      k.seqs <- extend k.seqs 0;
      k.slots <- extend k.slots 0;
      k.free <- Array.init ncap (fun i -> ncap - 1 - i);
      true
    end

  let fit k a fill =
    let na = Array.make (capacity k) fill in
    Array.blit a 0 na 0 (Array.length a);
    na

  (* The sifts move a hole rather than swapping, and read the key to
     place from the arrays: a helper taking a [float] would box it at
     every call that is not inlined. *)

  (* Sift the key at position [i] toward the root: parents later than
     it move down into the hole. *)
  let sift_up k i =
    let time = k.times.(i) and seq = k.seqs.(i) and slot = k.slots.(i) in
    let i = ref i and fin = ref false in
    while (not !fin) && !i > 0 do
      let p = (!i - 1) / 2 in
      let tp = k.times.(p) in
      if time < tp || (time = tp && seq < k.seqs.(p)) then begin
        k.times.(!i) <- tp;
        k.seqs.(!i) <- k.seqs.(p);
        k.slots.(!i) <- k.slots.(p);
        i := p
      end
      else fin := true
    done;
    k.times.(!i) <- time;
    k.seqs.(!i) <- seq;
    k.slots.(!i) <- slot

  (* Sift the key at position [from] into the hole at the root toward
     the leaves: the earlier child moves up into the hole while it is
     earlier than the key. *)
  let sift_down k ~from =
    let time = k.times.(from) and seq = k.seqs.(from) and slot = k.slots.(from) in
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      if l >= k.len then fin := true
      else begin
        let r = l + 1 in
        let c =
          if r < k.len then
            let tl = k.times.(l) and tr = k.times.(r) in
            if tr < tl || (tr = tl && k.seqs.(r) < k.seqs.(l)) then r else l
          else l
        in
        let tc = k.times.(c) in
        if tc < time || (tc = time && k.seqs.(c) < seq) then begin
          k.times.(!i) <- tc;
          k.seqs.(!i) <- k.seqs.(c);
          k.slots.(!i) <- k.slots.(c);
          i := c
        end
        else fin := true
      end
    done;
    k.times.(!i) <- time;
    k.seqs.(!i) <- seq;
    k.slots.(!i) <- slot

  let add k =
    let slot = k.free.(capacity k - k.len - 1) in
    k.slots.(k.len) <- slot;
    k.len <- k.len + 1;
    sift_up k (k.len - 1);
    slot

  let remove_min k =
    k.free.(capacity k - k.len) <- k.slots.(0);
    k.len <- k.len - 1;
    if k.len > 0 then sift_down k ~from:k.len
end

(* The heap, and the payloads by slot: a payload is written once, into
   a free slot, at push and overwritten with [filler] at [drop_min]. *)
type 'a t = {
  keys : Keys.t;
  mutable payloads : 'a array;
  mutable next_seq : int;
  filler : 'a;
}

let create ~filler = { keys = Keys.create (); payloads = [||]; next_seq = 0; filler }
let size t = t.keys.len
let is_empty t = t.keys.len = 0

let release t =
  if t.keys.len = 0 then begin
    Keys.release t.keys;
    t.payloads <- [||]
  end

let reserve_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let push t ~time payload =
  if not (Float.is_finite time) then
    invalid_arg "Event_queue.push: time must be finite";
  if time < 0.0 then invalid_arg "Event_queue.push: negative time";
  let k = t.keys in
  if Keys.ensure k then t.payloads <- Keys.fit k t.payloads t.filler;
  k.times.(k.len) <- time;
  k.seqs.(k.len) <- reserve_seq t;
  t.payloads.(Keys.add k) <- payload

let check_nonempty t fn =
  if t.keys.len = 0 then invalid_arg ("Event_queue." ^ fn ^ ": empty queue")

let min_time t =
  check_nonempty t "min_time";
  t.keys.times.(0)

let min_seq t =
  check_nonempty t "min_seq";
  t.keys.seqs.(0)

let min_payload t =
  check_nonempty t "min_payload";
  t.payloads.(t.keys.slots.(0))

let drop_min t =
  check_nonempty t "drop_min";
  t.payloads.(t.keys.slots.(0)) <- t.filler;
  Keys.remove_min t.keys

(* A slot is live iff a live heap position refers to it, and live
   positions refer to distinct slots: so no vacant slot holds a
   payload iff the slots holding one are exactly as many as the live
   positions whose slot holds one. Two counting passes, no
   allocation. *)
let vacant_slots_cleared t =
  let held = ref 0 and live = ref 0 in
  for s = 0 to Array.length t.payloads - 1 do
    if t.payloads.(s) != t.filler then incr held
  done;
  for i = 0 to t.keys.len - 1 do
    if t.payloads.(t.keys.slots.(i)) != t.filler then incr live
  done;
  !held = !live

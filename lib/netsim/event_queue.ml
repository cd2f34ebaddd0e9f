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
     every call that ocamlopt does not inline (the release build
     inlines small functions across modules, [--profile dev] none). *)

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
   a free slot, at push and overwritten with [filler] at [drop_min].

   Beside it, the lane: a push no earlier than the lane's last event
   is appended to a power-of-two ring instead of sifted into the heap.
   Its seq is the newest, so the ring stays in key order and its head
   is its earliest event; the queue's head is the earlier of the
   ring's head and the heap's root. Positions count up from 0 and
   index the ring modulo its size; it holds [lhead .. ltail - 1], and
   every other cell holds [filler]. *)
type 'a t = {
  keys : Keys.t;
  mutable payloads : 'a array;
  mutable next_seq : int;
  filler : 'a;
  mutable ltimes : float array;
  mutable lseqs : int array;
  mutable lpayloads : 'a array;
  mutable lhead : int;
  mutable ltail : int;
}

let create ~filler =
  { keys = Keys.create (); payloads = [||]; next_seq = 0; filler; ltimes = [||];
    lseqs = [||]; lpayloads = [||]; lhead = 0; ltail = 0 }

let size t = t.keys.len + t.ltail - t.lhead
let is_empty t = size t = 0

let release t =
  if size t = 0 then begin
    Keys.release t.keys;
    t.payloads <- [||];
    t.ltimes <- [||];
    t.lseqs <- [||];
    t.lpayloads <- [||];
    t.lhead <- 0;
    t.ltail <- 0
  end

let reserve_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

(* Called when the lane is full: double it, oldest event first. *)
let grow_lane t =
  let n = Array.length t.lpayloads in
  let ncap = max 16 (2 * n) in
  let times = Array.make ncap 0.0 and seqs = Array.make ncap 0 in
  let payloads = Array.make ncap t.filler in
  for k = 0 to n - 1 do
    let j = (t.lhead + k) land (n - 1) in
    times.(k) <- t.ltimes.(j);
    seqs.(k) <- t.lseqs.(j);
    payloads.(k) <- t.lpayloads.(j)
  done;
  t.ltimes <- times;
  t.lseqs <- seqs;
  t.lpayloads <- payloads;
  t.lhead <- 0;
  t.ltail <- n

let push t ~time payload =
  if not (Float.is_finite time) then
    invalid_arg "Event_queue.push: time must be finite";
  if time < 0.0 then invalid_arg "Event_queue.push: negative time";
  let mask = Array.length t.lpayloads - 1 in
  if t.ltail = t.lhead || time >= t.ltimes.((t.ltail - 1) land mask) then begin
    if t.ltail - t.lhead = mask + 1 then grow_lane t;
    let j = t.ltail land (Array.length t.lpayloads - 1) in
    t.ltimes.(j) <- time;
    t.lseqs.(j) <- reserve_seq t;
    t.lpayloads.(j) <- payload;
    t.ltail <- t.ltail + 1
  end
  else begin
    let k = t.keys in
    if Keys.ensure k then t.payloads <- Keys.fit k t.payloads t.filler;
    k.times.(k.len) <- time;
    k.seqs.(k.len) <- reserve_seq t;
    t.payloads.(Keys.add k) <- payload
  end

(* The lane's head is the queue's: the lane holds an event and the
   heap none earlier by key. *)
let lane_first t =
  t.ltail > t.lhead
  && (t.keys.len = 0
     ||
     let j = t.lhead land (Array.length t.lpayloads - 1) in
     let lt = t.ltimes.(j) and ht = t.keys.times.(0) in
     lt < ht || (lt = ht && t.lseqs.(j) < t.keys.seqs.(0)))

let check_nonempty t fn =
  if size t = 0 then invalid_arg ("Event_queue." ^ fn ^ ": empty queue")

let lane_head t = t.lhead land (Array.length t.lpayloads - 1)

let min_time t =
  check_nonempty t "min_time";
  if lane_first t then t.ltimes.(lane_head t) else t.keys.times.(0)

let min_seq t =
  check_nonempty t "min_seq";
  if lane_first t then t.lseqs.(lane_head t) else t.keys.seqs.(0)

let min_payload t =
  check_nonempty t "min_payload";
  if lane_first t then t.lpayloads.(lane_head t) else t.payloads.(t.keys.slots.(0))

let drop_min t =
  check_nonempty t "drop_min";
  if lane_first t then begin
    t.lpayloads.(lane_head t) <- t.filler;
    t.lhead <- t.lhead + 1
  end
  else begin
    t.payloads.(t.keys.slots.(0)) <- t.filler;
    Keys.remove_min t.keys
  end

(* A heap slot is live iff a live heap position refers to it, and live
   positions refer to distinct slots: so no vacant slot holds a
   payload iff the slots holding one are exactly as many as the live
   positions whose slot holds one. The lane's cells are counted the
   same way against [lhead .. ltail - 1]. Counting passes, no
   allocation. *)
let held filler a =
  let n = ref 0 in
  for s = 0 to Array.length a - 1 do
    if a.(s) != filler then incr n
  done;
  !n

let vacant_slots_cleared t =
  let live = ref 0 in
  for i = 0 to t.keys.len - 1 do
    if t.payloads.(t.keys.slots.(i)) != t.filler then incr live
  done;
  for k = t.lhead to t.ltail - 1 do
    if t.lpayloads.(k land (Array.length t.lpayloads - 1)) != t.filler then incr live
  done;
  held t.filler t.payloads + held t.filler t.lpayloads = !live

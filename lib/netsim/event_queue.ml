(* Slots are a variant rather than bare cells so that vacated heap
   positions can be reset to [Empty]: a popped cell left reachable at
   t.heap.(t.len) would pin its payload (a whole packet buffer) until
   some later push overwrites the slot — a space leak on long soak
   runs. The inline record keeps a push at one allocation, same as
   the previous bare-record representation. *)
type 'a slot =
  | Empty
  | Cell of { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a slot array;
  mutable len : int;
  mutable next_seq : int;
  (* [peek]'s answer, kept until the next push or pop: the simulator
     peeks at every event before popping it, and the pop then hands
     back the same block instead of allocating a second one. *)
  mutable head : (float * 'a) option;
}

let create () = { heap = [||]; len = 0; next_seq = 0; head = None }
let size t = t.len
let is_empty t = t.len = 0

let earlier a b =
  match (a, b) with
  | Cell a, Cell b -> a.time < b.time || (a.time = b.time && a.seq < b.seq)
  | Empty, _ | _, Empty -> invalid_arg "Event_queue: empty slot in heap"

let grow t =
  let cap = Array.length t.heap in
  if t.len = cap then begin
    let nh = Array.make (max 16 (2 * cap)) Empty in
    Array.blit t.heap 0 nh 0 t.len;
    t.heap <- nh
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier t.heap.(i) t.heap.(parent) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(parent);
      t.heap.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && earlier t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.len && earlier t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(!smallest);
    t.heap.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t ~time payload =
  if not (Float.is_finite time) then
    invalid_arg "Event_queue.push: time must be finite";
  if time < 0.0 then invalid_arg "Event_queue.push: negative time";
  let c = Cell { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  t.head <- None;
  grow t;
  t.heap.(t.len) <- c;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let peek t =
  match t.head with
  | Some _ as h -> h
  | None ->
      if t.len = 0 then None
      else (
        match t.heap.(0) with
        | Empty -> None
        | Cell c ->
            let h = Some (c.time, c.payload) in
            t.head <- h;
            h)

let pop t =
  match peek t with
  | None -> None
  | Some _ as h ->
      t.head <- None;
      t.len <- t.len - 1;
      if t.len > 0 then begin
        t.heap.(0) <- t.heap.(t.len);
        t.heap.(t.len) <- Empty;
        sift_down t 0
      end
      else t.heap.(0) <- Empty;
      h

let vacant_slots_cleared t =
  let ok = ref true in
  for i = t.len to Array.length t.heap - 1 do
    match t.heap.(i) with Empty -> () | Cell _ -> ok := false
  done;
  !ok

let clear t =
  t.heap <- [||];
  t.len <- 0;
  t.head <- None

(* A bounded custody store on an int-keyed slot table in recency
   order: entry-count *and* byte accounting, explicit accept/reject,
   and every transition reported to one observer — the §2.4
   state-consumption rule applied to custodial packets. *)

type event = Take | Release | Evict | Reject

(* Slot [s] of [index] holds [held.(s)], stored as an option so that
   a hit returns it as it is. *)
type 'v t = {
  index : Slots.t;
  mutable held : 'v option array;
  cap : int;
  max_bytes : int;
  size_of : 'v -> int;
  mutable bytes : int;
  mutable high_water : int;
  mutable high_water_bytes : int;
  mutable observer : (event -> unit) option;
}

let create ~capacity ~max_bytes ~size () =
  if capacity < 1 then invalid_arg "Custody_store.create: capacity must be >= 1";
  if max_bytes < 1 then invalid_arg "Custody_store.create: max_bytes must be >= 1";
  {
    index = Slots.create ~ordered:true;
    held = [||];
    cap = capacity;
    max_bytes;
    size_of = size;
    bytes = 0;
    high_water = 0;
    high_water_bytes = 0;
    observer = None;
  }

let capacity t = t.cap
let max_bytes t = t.max_bytes
let size t = Slots.count t.index
let bytes t = t.bytes
let high_water t = t.high_water
let high_water_bytes t = t.high_water_bytes
let mem t k = Slots.find t.index k >= 0
let set_observer t f = t.observer <- Some f

let find t k =
  let s = Slots.find t.index k in
  if s < 0 then None
  else begin
    Slots.touch t.index s;
    t.held.(s)
  end

let notify t ev = match t.observer with Some f -> f ev | None -> ()

(* Drop slot [s]'s bundle and refund its bytes. *)
let drop t s =
  (match t.held.(s) with Some v -> t.bytes <- t.bytes - t.size_of v | None -> ());
  Slots.remove t.index s;
  t.held.(s) <- None

let evict_lru t =
  let s = Slots.lru t.index in
  if s < 0 then None
  else begin
    let k = Slots.key t.index s in
    drop t s;
    notify t Evict;
    Some k
  end

let release t k =
  let s = Slots.find t.index k in
  if s >= 0 then (drop t s; notify t Release);
  s >= 0

let take t k v =
  let sz = t.size_of v in
  if sz > t.max_bytes then begin
    notify t Reject;
    `Rejected
  end
  else begin
    (* Re-taking a held key replaces the stored copy (an upstream
       retransmission carries the freshest bytes). *)
    let s = Slots.find t.index k in
    if s >= 0 then drop t s;
    while size t >= t.cap || t.bytes + sz > t.max_bytes do
      ignore (evict_lru t)
    done;
    let s = Slots.add t.index k in
    t.held <- Slots.fit t.held t.index None;
    t.held.(s) <- Some v;
    t.bytes <- t.bytes + sz;
    if size t > t.high_water then t.high_water <- size t;
    if t.bytes > t.high_water_bytes then t.high_water_bytes <- t.bytes;
    notify t Take;
    `Stored
  end

let fold f t init =
  let acc = ref init in
  Slots.iter
    (fun s -> match t.held.(s) with Some v -> acc := f (Slots.key t.index s) v !acc | None -> ())
    t.index;
  !acc

(* A bounded custody store on the Lru spine: entry-count *and* byte
   accounting, explicit accept/reject, and every transition reported
   to one observer — the §2.4 state-consumption rule applied to
   custodial packets.

   The store pre-evicts before every insert, so the underlying Lru
   never hits its own silent-eviction path: bytes and entry counts
   stay exact. *)

type event = Take | Release | Evict | Reject

type ('k, 'v) t = {
  lru : ('k, 'v) Lru.t;
  cap : int;
  max_bytes : int;
  size_of : 'v -> int;
  mutable bytes : int;
  mutable high_water : int;
  mutable high_water_bytes : int;
  mutable observer : (event -> unit) option;
}

let create ?hash ?equal ~capacity ~max_bytes ~size () =
  if capacity < 1 then invalid_arg "Custody_store.create: capacity must be >= 1";
  if max_bytes < 1 then invalid_arg "Custody_store.create: max_bytes must be >= 1";
  {
    lru = Lru.create ?hash ?equal ~capacity ();
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
let size t = Lru.size t.lru
let bytes t = t.bytes
let high_water t = t.high_water
let high_water_bytes t = t.high_water_bytes
let mem t k = Lru.mem t.lru k
let find t k = Lru.find t.lru k
let set_observer t f = t.observer <- Some f

let notify t ev = match t.observer with Some f -> f ev | None -> ()

let evict_lru t =
  match Lru.peek_lru t.lru with
  | None -> None
  | Some (k, v) ->
      ignore (Lru.remove t.lru k);
      t.bytes <- t.bytes - t.size_of v;
      notify t Evict;
      Some k

let release t k =
  match Lru.find t.lru k with
  | None -> false
  | Some v ->
      ignore (Lru.remove t.lru k);
      t.bytes <- t.bytes - t.size_of v;
      notify t Release;
      true

let take t k v =
  let sz = t.size_of v in
  if sz > t.max_bytes then begin
    notify t Reject;
    `Rejected
  end
  else begin
    (* Re-taking a held key replaces the stored copy (an upstream
       retransmission carries the freshest bytes). *)
    (match Lru.find t.lru k with
    | Some old ->
        ignore (Lru.remove t.lru k);
        t.bytes <- t.bytes - t.size_of old
    | None -> ());
    while Lru.size t.lru >= t.cap || t.bytes + sz > t.max_bytes do
      ignore (evict_lru t)
    done;
    Lru.insert t.lru k v;
    t.bytes <- t.bytes + sz;
    if Lru.size t.lru > t.high_water then t.high_water <- Lru.size t.lru;
    if t.bytes > t.high_water_bytes then t.high_water_bytes <- t.bytes;
    notify t Take;
    `Stored
  end

let fold f t init = Lru.fold f t.lru init

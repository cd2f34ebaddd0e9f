type port = int

(* Entries live in the slots of an int-keyed index: slot [s] holds the
   request ports, newest first, and the expiry. *)
type t = {
  index : Slots.t;
  mutable ports : port list array;
  mutable expires : float array;
  capacity : int;
  mutable earliest : float;
      (* A lower bound on every entry's expiry: while it is in the
         future a full table holds only live entries. New entries
         lower it; [purge_expired] makes it exact. *)
  mutable observer : event -> unit;
}

and event = Expire | Reject

let create ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Pit.create: capacity must be positive";
  {
    index = Slots.create ~ordered:false;
    ports = [||];
    expires = [||];
    capacity;
    earliest = Float.infinity;
    observer = ignore;
  }

let size t = Slots.count t.index
let set_observer t f = t.observer <- f

type outcome = Forwarded | Aggregated | Rejected

let singletons = Array.init 256 (fun p -> [ p ])
let singleton p = if p >= 0 && p < 256 then singletons.(p) else [ p ]

let drop t s =
  Slots.remove t.index s;
  t.ports.(s) <- []

let expire t s =
  drop t s;
  t.observer Expire

(* The live entry's slot, or -1; an expired entry is dropped. *)
let live t key now =
  let s = Slots.find t.index key in
  if s < 0 || t.expires.(s) > now then s
  else begin
    expire t s;
    -1
  end

let purge_expired t ~now =
  let dropped = ref 0 and earliest = ref Float.infinity in
  Slots.iter
    (fun s ->
      if t.expires.(s) <= now then begin
        expire t s;
        incr dropped
      end
      else earliest := Float.min !earliest t.expires.(s))
    t.index;
  t.earliest <- !earliest;
  !dropped

let full t = size t >= t.capacity

let insert_int t ~key ~port ~now ~lifetime =
  let s = live t key now in
  if s >= 0 then begin
    if not (List.mem port t.ports.(s)) then t.ports.(s) <- port :: t.ports.(s);
    t.expires.(s) <- Float.max t.expires.(s) (now +. lifetime);
    Aggregated
  end
  else begin
    (* A full table reclaims expired entries before it rejects; one
       full of live entries rejects without a scan. *)
    if full t && t.earliest <= now then ignore (purge_expired t ~now);
    if full t then begin
      t.observer Reject;
      Rejected
    end
    else begin
      let expires = now +. lifetime in
      let s = Slots.add t.index key in
      t.ports <- Slots.fit t.ports t.index [];
      t.expires <- Slots.fit t.expires t.index 0.0;
      t.ports.(s) <- singleton port;
      t.expires.(s) <- expires;
      if expires < t.earliest then t.earliest <- expires;
      Forwarded
    end
  end

(* The ports in arrival order; a single port's list is the stored one. *)
let arrivals = function [ _ ] as l -> l | l -> List.rev l

let consume_int t ~key ~now =
  let s = live t key now in
  if s < 0 then []
  else begin
    let ports = t.ports.(s) in
    drop t s;
    arrivals ports
  end

let key32 k = Int32.to_int k land 0xFFFF_FFFF
let insert t ~key ~port ~now ~lifetime =
  insert_int t ~key:(key32 key) ~port ~now ~lifetime

let consume t ~key ~now = consume_int t ~key:(key32 key) ~now

let pending t ~key ~now =
  let s = live t (key32 key) now in
  if s < 0 then [] else arrivals t.ports.(s)

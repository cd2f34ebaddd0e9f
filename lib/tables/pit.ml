type port = int

type entry = { mutable ports : port list; mutable expires : float }

type 'k t = {
  table : ('k, entry) Hashtbl.t;
  capacity : int;
  mutable earliest : float;
      (* A lower bound on every entry's expiry: while it is in the
         future a full table holds only live entries. New entries
         lower it; [purge_expired] makes it exact. *)
}

let create ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Pit.create: capacity must be positive";
  { table = Hashtbl.create 16; capacity; earliest = Float.infinity }

let size t = Hashtbl.length t.table

type outcome = Forwarded | Aggregated | Rejected

let live t key now =
  match Hashtbl.find_opt t.table key with
  | Some e when e.expires > now -> Some e
  | Some _ ->
      Hashtbl.remove t.table key;
      None
  | None -> None

let purge_expired t ~now =
  let dead, earliest =
    Hashtbl.fold
      (fun k e (dead, earliest) ->
        if e.expires <= now then (k :: dead, earliest)
        else (dead, Float.min earliest e.expires))
      t.table ([], Float.infinity)
  in
  List.iter (Hashtbl.remove t.table) dead;
  t.earliest <- earliest;
  List.length dead

let full t = Hashtbl.length t.table >= t.capacity

let insert t ~key ~port ~now ~lifetime =
  match live t key now with
  | Some e ->
      if not (List.mem port e.ports) then e.ports <- port :: e.ports;
      e.expires <- Float.max e.expires (now +. lifetime);
      Aggregated
  | None ->
      (* A full table reclaims expired entries before it rejects; one
         full of live entries rejects without a scan. *)
      if full t && t.earliest <= now then ignore (purge_expired t ~now);
      if full t then Rejected
      else begin
        let expires = now +. lifetime in
        Hashtbl.replace t.table key { ports = [ port ]; expires };
        if expires < t.earliest then t.earliest <- expires;
        Forwarded
      end

let consume t ~key ~now =
  match live t key now with
  | None -> []
  | Some e ->
      Hashtbl.remove t.table key;
      List.rev e.ports

let pending t ~key ~now =
  match live t key now with None -> [] | Some e -> List.rev e.ports


type event_kind = Received of Sim.port | Consumed | Dropped of string

type event = { time : float; node : string; kind : event_kind }

(* Events are indexed by packet fingerprint (journeys are the hot
   query) and carry a global sequence number so full-log views keep a
   stable order among same-timestamp events. Per-fingerprint lists
   are reversed (most recent first) for O(1) append. *)
type t = {
  fingerprint : Dip_bitbuf.Bitbuf.t -> int32;
  index : (int32, (int * event) list ref) Hashtbl.t;
  max_events : int;
  mutable nevents : int;
  mutable dropped : int;
  mutable seq : int;
}

let default_fingerprint buf =
  Dip_stdext.Crc32.digest_bytes (Dip_bitbuf.Bitbuf.to_bytes buf)

let default_max_events = 1_000_000

let attach ?(fingerprint = default_fingerprint)
    ?(max_events = default_max_events) sim =
  if max_events < 1 then invalid_arg "Trace.attach: max_events must be >= 1";
  let t =
    {
      fingerprint;
      index = Hashtbl.create 256;
      max_events;
      nevents = 0;
      dropped = 0;
      seq = 0;
    }
  in
  Sim.on_consume sim (fun node time pkt ->
      let fp = t.fingerprint pkt in
      let e = { time; node = Sim.node_name sim node; kind = Consumed } in
      if t.nevents >= t.max_events then t.dropped <- t.dropped + 1
      else begin
        let cell =
          match Hashtbl.find_opt t.index fp with
          | Some c -> c
          | None ->
              let c = ref [] in
              Hashtbl.replace t.index fp c;
              c
        in
        cell := (t.seq, e) :: !cell;
        t.seq <- t.seq + 1;
        t.nevents <- t.nevents + 1
      end);
  t

let record t ~node ~time fp kind =
  if t.nevents >= t.max_events then t.dropped <- t.dropped + 1
  else begin
    let cell =
      match Hashtbl.find_opt t.index fp with
      | Some c -> c
      | None ->
          let c = ref [] in
          Hashtbl.replace t.index fp c;
          c
    in
    cell := (t.seq, { time; node; kind }) :: !cell;
    t.seq <- t.seq + 1;
    t.nevents <- t.nevents + 1
  end

let wrap t ~name inner sim ~now ~ingress packet =
  let fp = t.fingerprint packet in
  record t ~node:name ~time:now fp (Received ingress);
  let actions = inner sim ~now ~ingress packet in
  List.iter
    (fun action ->
      match action with
      | Sim.Drop reason -> record t ~node:name ~time:now fp (Dropped reason)
      | Sim.Forward _ | Sim.Consume -> ())
    actions;
  actions

let by_time evs =
  List.sort
    (fun (sa, a) (sb, b) ->
      match Float.compare a.time b.time with
      | 0 -> Int.compare sa sb
      | c -> c)
    evs
  |> List.map snd

let events t =
  Hashtbl.fold (fun _ cell acc -> List.rev_append !cell acc) t.index []
  |> by_time

let journey t fp =
  match Hashtbl.find_opt t.index fp with
  | None -> []
  | Some cell -> by_time !cell

let event_count t = t.nevents
let dropped_events t = t.dropped

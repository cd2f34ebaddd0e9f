module Sim = Dip_netsim.Sim
module Bitbuf = Dip_bitbuf.Bitbuf
module Custody_store = Dip_tables.Custody_store

(* Custody transfer (F_cust, key 16) — DTN semantics as an ignorable
   FN (§2.4).

   Wire layout: a 5-byte custody region carried in the locations,
   placed by convention right after the Host.Reliable layout (so the
   end-to-end CRC, which covers locations[0..12) + payload, never
   sees it — custodians may flip bits in flight without breaking
   integrity):

     byte 0      tag: bit0 custody-requested (set by the source)
                      bit1 in-custody       (set by each custodian)
                      bit2 custody-ACK      (marks the hop-local ACK)
     byte 1..5   bundle id (big-endian; Reliable uses its sequence
                 number)

   The hop-by-hop custody ACK is its own single-FN packet (next
   header 0xFB): F_cust over the same 5-byte region with bit2 set.
   It travels exactly one custodial hop — the upstream custodian's
   F_cust releases its stored copy and ends processing [Silent]; a
   router without custody state consumes it silently too. *)

let region_bytes = 5
let region_bits = 40

let flag_request = 0x01
let flag_in_custody = 0x02
let flag_ack = 0x04

let ack_next_header = 0xFB

(* Virtual ingress for retransmissions out of the custody store. The
   stored bundle already ran the full FN program at this node once
   (route chosen, custody taken, hop limit charged), so replayed
   copies bypass the engine and go straight out the configured data
   egress — the DTN "forward from custody" path. Must not be wired. *)
let replay_port = 98

let fn_at ~loc = Fn.v ~loc ~len:region_bits Opkey.F_cust

let set_region b ~off ~flags ~bundle =
  Bytes.set_uint8 b off flags;
  Bytes.set_int32_be b (off + 1) bundle

let read_flags buf ~base = Bitbuf.get_uint8 buf base
let read_bundle buf ~base = Bitbuf.get_uint32 buf (base + 1)

(* Every custody ACK is this packet with its bundle id written: built
   once, copied per ACK. *)
let ack_template =
  let loc = Bytes.create region_bytes in
  set_region loc ~off:0 ~flags:flag_ack ~bundle:0l;
  Packet.build ~next_header:ack_next_header
    ~fns:[ fn_at ~loc:0 ]
    ~locations:(Bytes.to_string loc) ~payload:"" ()

let ack_base = Header.fn_offset 1

let build_ack ~bundle =
  let p = Bitbuf.copy ack_template in
  Bitbuf.set_uint32 p (ack_base + 1) bundle;
  p

type config = {
  capacity : int;  (** max bundles held per router *)
  max_bytes : int;  (** max stored bytes per router *)
  retry : float;  (** seconds between replay sweeps; 0 disables *)
  retry_until : float;  (** stop re-arming the sweep past this time *)
}

let default_config =
  { capacity = 1024; max_bytes = 1 lsl 20; retry = 0.5;
    retry_until = Float.infinity }

(* The store transitions by index, each under one name: its counter
   in the env's registry, its flight instant (a0 = node id, a1 = store
   depth after the event) and its {!stats} key after "custody.". *)
let kinds = [| "take"; "release"; "evict"; "reject" |]

let index = function
  | Custody_store.Take -> 0
  | Custody_store.Release -> 1
  | Custody_store.Evict -> 2
  | Custody_store.Reject -> 3

let names = Array.map (( ^ ) "custody.") kinds
let flight_ids = Array.map (fun n -> Dip_obs.Flight.register n) names

(* Replays: counted once, in the simulator's registry, and recorded as
   a flight instant (a0 = node id, a1 = bundles put back on the
   wire). *)
let replay_name = "custody.replay"
let ev_replay = Dip_obs.Flight.register replay_name

let make_store cfg =
  if cfg.retry < 0.0 then invalid_arg "Custody: negative retry interval";
  Custody_store.create ~capacity:cfg.capacity ~max_bytes:cfg.max_bytes
    ~size:Bitbuf.length ()

(* Count store transitions in the env's registry (so chaos
   reports see them next to the dip.* counters; the handles are
   registered here, once per store), plus optional Flight instants. *)
let observe ?flight ~env ~store ~node =
  let counters = Array.map (Dip_obs.Metrics.counter env.Env.counters) names in
  fun ev ->
    let i = index ev in
    Dip_obs.Metrics.Counter.incr counters.(i);
    match flight with
    | Some r ->
        Dip_obs.Flight.record r flight_ids.(i) node (Custody_store.size store) 0
    | None -> ()

let enable ?(config = default_config) env =
  let store = make_store config in
  env.Env.custody <- Some store;
  Custody_store.set_observer store
    (observe ?flight:None ~env ~store ~node:0);
  store

type router = {
  sim : Sim.t;
  env : Env.t;
  store : Bitbuf.t Custody_store.t;
  cfg : config;
  out_port : Sim.port;
  mutable node : Sim.node_id;
  mutable armed : bool;
  flight : Dip_obs.Flight.ring option;
  replayed : Dip_obs.Metrics.counter; (* [replay_name] *)
}

let node t = t.node
let env t = t.env
let store t = t.store

(* Put every held bundle back on the wire (link-up, or the periodic
   safety sweep covering lost custody ACKs). Injection goes through
   [replay_port]; the node handler turns each arrival into a direct
   [Forward] out [out_port]. *)
let rec replay t =
  let n =
    Custody_store.fold
      (fun _bundle pkt n ->
        Sim.inject t.sim ~at:(Sim.now t.sim) ~node:t.node ~port:replay_port
          (Bitbuf.copy pkt);
        n + 1)
      t.store 0
  in
  if n > 0 then begin
    Dip_obs.Metrics.Counter.incr ~by:n t.replayed;
    (match t.flight with
    | Some r -> Dip_obs.Flight.record r ev_replay t.node n 0
    | None -> ())
  end;
  maybe_arm t

and maybe_arm t =
  let now = Sim.now t.sim in
  if
    t.cfg.retry > 0.0 && (not t.armed)
    && Custody_store.size t.store > 0
    && now < t.cfg.retry_until
  then begin
    t.armed <- true;
    Sim.schedule t.sim ~at:(now +. t.cfg.retry) (fun _sim ->
        t.armed <- false;
        if
          Custody_store.size t.store > 0
          && Sim.now t.sim < t.cfg.retry_until
        then replay t)
  end

let add_router ?obs ?flight ?(config = default_config) sim ~registry ~env
    ~name ~out_port () =
  let store = make_store config in
  env.Env.custody <- Some store;
  let t =
    { sim; env; store; cfg = config; out_port; node = -1; armed = false;
      flight;
      replayed = Dip_obs.Metrics.counter (Sim.counters sim) replay_name }
  in
  t.node <-
    Sim.add_node sim ~name (fun sim ~now ~ingress packet ->
        if ingress = replay_port then [ Sim.Forward (t.out_port, packet) ]
        else begin
          let actions =
            Engine.handler ?obs ~registry env sim ~now ~ingress packet
          in
          maybe_arm t;
          actions
        end);
  Custody_store.set_observer store (observe ?flight ~env ~store ~node:t.node);
  t

let stats t =
  let get i = Dip_netsim.Stats.Counters.get t.env.Env.counters names.(i) in
  Array.to_list (Array.mapi (fun i k -> (k, get i)) kinds)
  @ [
    ("held", Custody_store.size t.store);
    ("high-water", Custody_store.high_water t.store);
    ("high-water-bytes", Custody_store.high_water_bytes t.store);
  ]

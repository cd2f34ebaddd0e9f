(* The lower rungs of the layer ladder, shared by all four workloads.

   [wrap] times a node handler, and [router] is Engine.handler's body
   with its three public calls -- Engine.process,
   Env.publish_cache_stats, Engine.actions_of_verdict -- timed one by
   one. In a traced run one arrival in [sample] is also kept as Flight
   spans: the handler span, with the three calls as its children.
   [engine_rungs] replays packets through the engine's lower entry
   points. [replay] gives the engine workloads their simulated-network
   figures. *)

open Dip_core
open Harness
module Sim = Dip_netsim.Sim
module Stats = Dip_netsim.Stats
module Bitbuf = Dip_bitbuf.Bitbuf
module Fib = Dip_tables.Fib
module Prng = Dip_stdext.Prng

(* Hosts inject their own traffic on this virtual port and send it out
   of their only link. *)
let send_port = 99

let sender (h : Sim.handler) : Sim.handler =
 fun sim ~now ~ingress pkt ->
  if ingress = send_port then [ Sim.Forward (0, pkt) ]
  else h sim ~now ~ingress pkt

type probe = {
  tr : tracer option;
  sample : int;
  mutable parent : int;  (** span id of the enclosing phase *)
  mutable cur : int;  (** span id of the sampled arrival in flight, or 0 *)
  mutable tick : int;
  mutable arrivals : int;
  mutable handler_ns : int;
  mutable calls : int;
  mutable process_ns : int;
  mutable publish_ns : int;
  mutable verdict_ns : int;
  kept : Bitbuf.t Queue.t;  (** copies of router arrivals, for the rungs *)
  keep : int;
}

let probe ?tr ?(sample = 1) ?(keep = 0) () =
  {
    tr;
    sample = max 1 sample;
    parent = 0;
    cur = 0;
    tick = 0;
    arrivals = 0;
    handler_ns = 0;
    calls = 0;
    process_ns = 0;
    publish_ns = 0;
    verdict_ns = 0;
    kept = Queue.create ();
    keep;
  }

let child p ev dt =
  match p.tr with
  | Some tr when p.cur > 0 -> Flight.record tr.ring ev dt (open_span tr) p.cur
  | _ -> ()

let router p ?verify env : Sim.handler =
 fun _sim ~now ~ingress pkt ->
  let a = clock () in
  let verdict, _ = Engine.process ?verify ~registry env ~now ~ingress pkt in
  let b = clock () in
  child p ev_process (b - a);
  let c = clock () in
  Env.publish_cache_stats env;
  let d = clock () in
  child p ev_publish (d - c);
  let e = clock () in
  let actions = Engine.actions_of_verdict env ~ingress pkt verdict in
  let f = clock () in
  child p ev_verdict (f - e);
  p.calls <- p.calls + 1;
  p.process_ns <- p.process_ns + (b - a);
  p.publish_ns <- p.publish_ns + (d - c);
  p.verdict_ns <- p.verdict_ns + (f - e);
  actions

let wrap ?(keep = fun _ -> false) p (h : Sim.handler) : Sim.handler =
 fun sim ~now ~ingress pkt ->
  if Queue.length p.kept < p.keep && keep ingress then
    Queue.add (Bitbuf.copy pkt) p.kept;
  p.tick <- p.tick + 1;
  let id =
    match p.tr with
    | Some tr when p.tick mod p.sample = 0 -> open_span tr
    | _ -> 0
  in
  p.cur <- id;
  let t0 = clock () in
  let actions = h sim ~now ~ingress pkt in
  let dt = clock () - t0 in
  p.arrivals <- p.arrivals + 1;
  p.handler_ns <- p.handler_ns + dt;
  (match p.tr with
  | Some tr when id > 0 -> Flight.record tr.ring ev_handler dt id p.parent
  | _ -> ());
  p.cur <- 0;
  actions

(* Wall time per packet arrival (one handler call, one hop) over
   groups of [arrival_group] arrivals: the simulator workloads'
   pkt_ns_p50/p99. The caller adds each Sim.run's wall time and
   deliveries to the phase's totals. [start] before each Sim.run. *)
let arrival_group = 512

type pacer = { ph : Phase.t; mutable n : int; mutable last : int }

let pacer ph = { ph; n = 0; last = 0 }

let start pc =
  pc.n <- 0;
  pc.last <- clock ()

let paced pc (h : Sim.handler) : Sim.handler =
 fun sim ~now ~ingress pkt ->
  let actions = h sim ~now ~ingress pkt in
  pc.n <- pc.n + 1;
  if pc.n mod arrival_group = 0 then begin
    let t = clock () in
    Phase.sample pc.ph (float_of_int (t - pc.last) /. float_of_int arrival_group);
    pc.last <- t
  end;
  actions

(* [wall_ns] and [words]: Sim.run's wall time and minor words over the
   runs the probe saw. *)
let sim_layers p ~wall_ns ~deliveries ~words =
  [
    ("sim.handler_ns", per p.handler_ns p.arrivals);
    ("sim.process_ns", per p.process_ns p.calls);
    ("sim.publish_ns", per p.publish_ns p.calls);
    ("sim.verdict_ns", per p.verdict_ns p.calls);
    ("sim.self_ns_per_arrival", per (wall_ns - p.handler_ns) p.arrivals);
    ("sim.arrivals_per_delivery", per p.arrivals deliveries);
    ("sim.alloc_words_per_arrival", words /. float_of_int (max 1 p.arrivals));
  ]

let count_suffix suffix sim =
  List.fold_left
    (fun acc (k, v) -> if String.ends_with ~suffix k then acc + v else acc)
    0
    (Stats.Counters.to_list (Sim.counters sim))

let transmissions = count_suffix ".tx"
let arrivals = count_suffix ".rx"

(* --- engine rungs -------------------------------------------------- *)

type rungs = {
  parse_ns : float;
  hinted_ns : float;
  hinted_words : float;
  verify_ns : float;
  programs : int;
  fib_ns : float;
  v4_share : float;  (** share of the packets that run F_32_match *)
}

let v4_target (view : Packet.view) =
  Array.fold_left
    (fun acc (fn : Fn.t) ->
      match acc with
      | Some _ -> acc
      | None ->
          if fn.Fn.key = Opkey.F_32_match then
            Some (Dip_tables.Ipaddr.V4.of_wire (Packet.get_target view fn))
          else None)
    None view.Packet.fns

(* The same packets through Packet.parse, Progcache.parse_hinted (a
   fresh cache of the engine's default capacity), the static verifier
   on each distinct program, and Fib.V4.lookup_id on [env]'s table
   ([dsts] overrides the packets' own destinations). *)
let engine_rungs ?dsts ~env pkts =
  let n = Array.length pkts in
  let views =
    Array.map
      (fun p ->
        match Packet.parse p with
        | Ok v -> v
        | Error e -> failwith ("perfbench: unparsable packet: " ^ e))
      pkts
  in
  let parse_ns =
    ns_per_call n (fun i -> ignore (Sys.opaque_identity (Packet.parse pkts.(i))))
  in
  let cache = Progcache.create () and hint = Progcache.hint () in
  let hinted i =
    ignore (Sys.opaque_identity (Progcache.parse_hinted cache hint pkts.(i)))
  in
  let hinted_ns = ns_per_call n hinted in
  let hinted_words = words_per_call n hinted in
  let distinct = Hashtbl.create 64 in
  Array.iteri
    (fun i p ->
      match Progcache.key_of p with
      | Some k when not (Hashtbl.mem distinct k) -> Hashtbl.add distinct k views.(i)
      | _ -> ())
    pkts;
  let progs = Array.of_seq (Hashtbl.to_seq_values distinct) in
  let verify = Dip_analysis.verifier ~registry () in
  let verify_ns =
    ns_per_call (Array.length progs) (fun i ->
        ignore (Sys.opaque_identity (verify progs.(i))))
  in
  let targets = Array.of_list (List.filter_map v4_target (Array.to_list views)) in
  let dsts = match dsts with Some d -> d | None -> targets in
  let fib_ns =
    ns_per_call (Array.length dsts) (fun i ->
        ignore
          (Sys.opaque_identity (Fib.V4.lookup_id env.Env.v4_routes dsts.(i))))
  in
  {
    parse_ns;
    hinted_ns;
    hinted_words;
    verify_ns;
    programs = Array.length progs;
    fib_ns;
    v4_share = per (Array.length targets) n;
  }

let rung_layers r =
  [
    ("parse.cold_ns", r.parse_ns);
    ("progcache.hinted_ns", r.hinted_ns);
    ("progcache.alloc_words", r.hinted_words);
    ("verify.ns_per_miss", r.verify_ns);
    ("fib.lookup_ns", r.fib_ns);
  ]

(* --- the one-router replay ----------------------------------------- *)

(* The link model of the simulated networks: 2 us, 100 Mb/s. *)
let link_latency = 2e-6
let link_bandwidth = 1.25e7 (* bytes per second *)
let replay_passes = 4

type replay = {
  offered : int;
  wrong : int;
  replay_e2e : (string * float) list;  (** tx_per_delivery, sim_lat_p50_s/p99_s *)
  replay_digest : int;
}

(* Every workload reports every end-to-end metric, so the engine
   workloads take the simulated-network ones from this replay: their
   packets, sent by a source node into their own router [env], whose
   port p leads to a sink node (port 0 back to the source). Poisson
   arrivals load the source's link to 70%, so most packets queue
   behind another and the latency median is a queueing figure rather
   than the fixed path delay. The packets are sent [replay_passes]
   times, one pass after the other has drained, so the p99 rests on
   enough packets to repeat across seeds. [expect.(i)] is the port
   packet [i] must leave by, or -1 when it must not be forwarded; each
   packet carries its index as a 32-bit word at the start of its
   payload. *)
let replay ~seed ?verify ~env ~packets ~expect () =
  let n = Array.length packets in
  let bytes = Array.fold_left (fun acc p -> acc + Bitbuf.length p) 0 packets in
  let rate = 0.7 *. link_bandwidth *. float_of_int n /. float_of_int bytes in
  let sim = Sim.create () in
  let consume _ ~now:_ ~ingress:_ _ = [ Sim.Consume ] in
  let source = Sim.add_node sim ~name:"source" (sender consume) in
  let router = Sim.add_node sim ~name:"router" (Engine.handler ?verify ~registry env) in
  let port_of_node = Hashtbl.create 32 in
  Hashtbl.add port_of_node source 0;
  for port = 0 to Array.fold_left max 0 expect do
    let node =
      if port = 0 then source
      else Sim.add_node sim ~name:(Printf.sprintf "sink%d" port) consume
    in
    Hashtbl.replace port_of_node node port;
    Sim.connect sim ~latency:link_latency ~bandwidth:link_bandwidth (router, port) (node, 0)
  done;
  (* Up to a microsecond of seeded propagation jitter per hop: packets
     of one size that never queue would otherwise share one latency,
     and a median sitting on it would read the same for every seed. *)
  let faults = Dip_netsim.Faults.attach ~seed sim in
  Dip_netsim.Faults.all_links faults (Dip_netsim.Faults.spec ~jitter:1e-6 ());
  let g = Prng.create (Int64.add seed 17L) in
  let sent_at = ref [||] and lat = ref [||] and lats = Fvec.create () in
  let wrong = ref 0 and dig = ref digest_init and delivered = ref 0 in
  Sim.on_consume sim (fun node time pkt ->
      let id =
        match Packet.header_size pkt with
        | Ok hl when hl + 4 <= Bitbuf.length pkt -> Int32.to_int (Bitbuf.get_uint32 pkt hl)
        | _ -> -1
      in
      if
        id < 0 || id >= n
        || !lat.(id) >= 0.0
        || Hashtbl.find_opt port_of_node node <> Some expect.(id)
      then incr wrong
      else begin
        incr delivered;
        !lat.(id) <- time -. !sent_at.(id);
        dig := mix (mix !dig id) expect.(id)
      end);
  for _ = 1 to replay_passes do
    sent_at := Array.make n 0.0;
    lat := Array.make n (-1.0);
    let t = ref (Sim.now sim) in
    Array.iteri
      (fun i pkt ->
        t := !t +. Prng.exponential g rate;
        !sent_at.(i) <- !t;
        Sim.inject sim ~at:!t ~node:source ~port:send_port (Bitbuf.copy pkt))
      packets;
    Sim.run sim;
    Array.iteri
      (fun i e ->
        if !lat.(i) >= 0.0 then Fvec.add lats !lat.(i) else if e >= 0 then incr wrong)
      expect
  done;
  let lats = Fvec.to_array lats in
  {
    offered = replay_passes * n;
    wrong = !wrong;
    replay_e2e =
      [
        ("tx_per_delivery", per (transmissions sim) !delivered);
        ("sim_lat_p50_s", median lats);
        ("sim_lat_p99_s", quantile lats 0.99);
      ];
    replay_digest = !dig;
  }

(* dtn-custody: sender -> 5 custodian DIP routers -> receiver, wired as
   in Chaos, with 1% loss on every link and a seeded satellite-pass
   contact plan (Workload.satellite_passes) on the middle link,
   carrying 20k bundles with the custody store sized so nothing is
   evicted. The same Sim layer as fattree-k8, driven instead by
   timers (retransmits, custody sweeps), the Faults egress hook and
   Custody_store writes. Each repetition builds a fresh network from
   the same inputs, so every repetition's simulated outputs are the
   same. *)

open Dip_core
open Harness
module Sim = Dip_netsim.Sim
module Faults = Dip_netsim.Faults
module Workload = Dip_netsim.Workload
module Reliable = Host.Reliable
module Ipaddr = Dip_tables.Ipaddr
module Fib = Dip_tables.Fib
module Bitbuf = Dip_bitbuf.Bitbuf

let custodians = 5
let bundles = function Full -> 20_000 | Small -> 400
let interval = 0.002 (* seconds between sends *)
(* Contact plan: one [contact]-second pass per [period]. Passes come
   often enough that a run holds a dozen of them: with one pass in 20 s,
   the seeded timing of a pass against the custody sweep sometimes
   replayed a whole store twice, and one seed in six carried 30% more
   transmissions than the rest. *)
let period = 4.0
let contact = 0.5
let keep = 4096 (* custodian arrivals copied for the engine rungs *)
let sender_addr = Ipaddr.V4.of_string "192.168.0.1"
let receiver_addr = Ipaddr.V4.of_string "10.0.0.1"

type inputs = {
  payloads : string array;
  passes : (float * float) list;  (** middle-link down windows *)
  horizon : float;
}

let gen ~scale ~seed =
  let n = bundles scale in
  let horizon = (float_of_int n *. interval) +. (2.0 *. period) in
  let passes =
    Workload.satellite_passes ~seed:(Int64.add seed 2L) ~jitter:0.1 ~period
      ~pass:contact ~horizon ()
  in
  {
    payloads = Array.init n (fun i -> Printf.sprintf "bundle-%06d-%016Lx" i seed);
    passes;
    horizon;
  }

let route env =
  Fib.V4.insert env.Env.v4_routes (Ipaddr.V4.of_string "10.0.0.0") ~len:8 1;
  Fib.V4.insert env.Env.v4_routes (Ipaddr.V4.of_string "192.168.0.0") ~len:16 0

(* The contact plan ends at [horizon] with the link up for good; the
   sweep keeps running past it so a replay lost to the 1% loss is
   retried. *)
let config inp =
  {
    Custody.capacity = Array.length inp.payloads;
    max_bytes = 1 lsl 28;
    retry = 1.0;
    retry_until = inp.horizon +. (2.0 *. period);
  }

type net = {
  sim : Sim.t;
  routers : Custody.router array;
  sender : Reliable.sender;
  recv : Reliable.receiver;
  recv_node : Sim.node_id;
  faults : Faults.t;
  insert_ns : int;
}

let setup ~seed inp =
  let sim = Sim.create () in
  let insert_ns = ref 0 in
  let routers =
    Array.init custodians (fun i ->
        let name = Printf.sprintf "r%d" (i + 1) in
        let env = Env.create ~name () in
        let t0 = clock () in
        route env;
        insert_ns := !insert_ns + (clock () - t0);
        Custody.add_router ~config:(config inp) sim ~registry ~env ~name ~out_port:1 ())
  in
  let sender =
    Reliable.add_sender ~custody:true sim ~name:"sender" ~seed:(Int64.add seed 1L)
      ~src:sender_addr ~dst:receiver_addr ~out_port:0
  in
  let recv, recv_node = Reliable.add_receiver sim ~name:"receiver" in
  let link a b = Sim.connect sim ~latency:1e-3 a b in
  link (Reliable.sender_node sender, 0) (Custody.node routers.(0), 0);
  for i = 0 to custodians - 2 do
    link (Custody.node routers.(i), 1) (Custody.node routers.(i + 1), 0)
  done;
  link (Custody.node routers.(custodians - 1), 1) (recv_node, 0);
  let faults = Faults.attach ~seed sim in
  Faults.all_links faults (Faults.spec ~drop:0.01 ());
  let mid = Custody.node routers.(custodians / 2) in
  List.iter (fun (a, b) -> Faults.link_down faults (mid, 1) ~from_:a ~until:b) inp.passes;
  Array.iter
    (fun r -> Faults.on_link_up faults (Custody.node r, 1) (fun _ -> Custody.replay r))
    routers;
  { sim; routers; sender; recv; recv_node; faults; insert_ns = !insert_ns }

(* Wrap every node's handler; custodian arrivals other than replays
   are copied for the engine rungs. *)
let trace_handlers net p =
  let custodian = Array.map Custody.node net.routers in
  for id = 0 to Sim.node_count net.sim - 1 do
    let keep =
      if Array.mem id custodian then fun ingress -> ingress <> Custody.replay_port
      else fun _ -> false
    in
    Sim.set_handler net.sim id (Simladder.wrap ~keep p (Sim.node_handler net.sim id))
  done

type rep = {
  insert_ns : int;
  wall : int;
  words : float;
  delivered : int;
  wrong : int;
  tx : int;
  rx : int;
  lat : float array;
  digest : int;
  hits : int;
  misses : int;
  evicts : int;
  counts : (string * float) list;  (** custody, retransmit and fault counts *)
}

(* One repetition: set up, send every bundle, drain, and check that
   each bundle reached the receiver exactly once. [mem] runs while the
   network is still alive. *)
let rep ~seed inp ~ph ?probe ?(mem = ignore) () =
  Gc.full_major ();
  let net = setup ~seed inp in
  (match probe with Some p -> trace_handlers net p | None -> ());
  let pc = Simladder.pacer ph in
  for id = 0 to Sim.node_count net.sim - 1 do
    Sim.set_handler net.sim id (Simladder.paced pc (Sim.node_handler net.sim id))
  done;
  let w0 = Gc.minor_words () in
  Simladder.start pc;
  let t1 = clock () in
  Array.iteri
    (fun i payload -> Reliable.send net.sender ~at:(float_of_int i *. interval) ~payload)
    inp.payloads;
  Sim.run net.sim;
  let wall = clock () - t1 in
  let words = Gc.minor_words () -. w0 in
  Phase.add ph ~ns:wall ~pkts:(Reliable.delivered net.recv);
  mem ();
  let n = Array.length inp.payloads in
  let lat = Array.make n (-1.0) and wrong = ref 0 and dig = ref digest_init in
  List.iter
    (fun (seq, t) ->
      let s = Int32.to_int seq in
      if s < 0 || s >= n || lat.(s) >= 0.0 then incr wrong
      else begin
        lat.(s) <- t -. (float_of_int s *. interval);
        dig := mix_float (mix !dig s) t
      end)
    (Reliable.deliveries net.recv);
  Array.iter (fun l -> if l < 0.0 then incr wrong) lat;
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 net.routers in
  let stat key = sum (fun r -> List.assoc key (Custody.stats r)) in
  let cache f = sum (fun r -> f (Custody.env r).Env.prog_cache) in
  let high_water =
    Array.fold_left (fun acc r -> max acc (List.assoc "high-water" (Custody.stats r))) 0
      net.routers
  in
  let ss = Reliable.sender_stats net.sender in
  {
    insert_ns = net.insert_ns;
    wall;
    words;
    delivered = Reliable.delivered net.recv;
    wrong = !wrong;
    tx = Simladder.transmissions net.sim;
    rx = Simladder.arrivals net.sim;
    lat;
    digest = !dig;
    hits = cache Progcache.hits;
    misses = cache Progcache.misses;
    evicts = cache Progcache.evictions;
    counts =
      [
        ("custody.take", float_of_int (stat "take"));
        ( "custody.replay",
          float_of_int (Dip_netsim.Stats.Counters.get (Sim.counters net.sim) "custody.replay") );
        ("custody.evict", float_of_int (stat "evict"));
        ("custody.high_water", float_of_int high_water);
        ( "reliable.retx_per_bundle",
          per (ss.Reliable.transmissions - ss.Reliable.sent) ss.Reliable.sent );
        ( "faults.injected",
          float_of_int (List.fold_left (fun acc (_, c) -> acc + c) 0 (Faults.counts net.faults)) );
      ];
  }

(* The three calls Engine.handler makes, replayed over the copied
   custodian arrivals on a replica custodian (a custodian's handler
   wraps them together with Custody's replay path). *)
let engine_calls inp kept =
  let env = Env.create ~name:"replica" () in
  route env;
  ignore (Custody.enable ~config:(config inp) env);
  let copies = Array.map Bitbuf.copy kept in
  let proc = ref 0 and publ = ref 0 and verd = ref 0 in
  Array.iter
    (fun pkt ->
      let a = clock () in
      let v, _ = Engine.process ~registry env ~now:0.0 ~ingress:0 pkt in
      let b = clock () in
      Env.publish_cache_stats env;
      let c = clock () in
      ignore (Sys.opaque_identity (Engine.actions_of_verdict env ~ingress:0 pkt v));
      let d = clock () in
      proc := !proc + (b - a);
      publ := !publ + (c - b);
      verd := !verd + (d - c))
    copies;
  let copies = Array.map Bitbuf.copy kept in
  let alloc =
    words_per_call (Array.length copies) (fun i ->
        ignore (Engine.process ~registry env ~now:0.0 ~ingress:0 copies.(i)))
  in
  let n = Array.length kept in
  (env, per !proc n, per !publ n, per !verd n, alloc)

let run ~scale ~seed ~seconds ~tracer =
  let inp = gen ~scale ~seed in
  let n = Array.length inp.payloads in
  let ph = Phase.create () in
  let attempted = ref 0 and failed = ref 0 in
  let timed = ref 0 and reps = ref 0 in
  let record r =
    attempted := !attempted + n;
    failed := !failed + r.wrong;
    timed := !timed + r.wall;
    incr reps
  in
  let setup_s, _ = time_setups (fun () -> setup ~seed inp) in
  let live0 = live_bytes () in
  let live1 = ref live0 in
  let first = rep ~seed inp ~ph ~mem:(fun () -> live1 := live_bytes () - Phase.bytes ph) () in
  record first;
  let plain_s = match tracer with None -> seconds | Some _ -> seconds /. 2.0 in
  while !timed < ns_of_s plain_s || !reps < 3 do
    record (rep ~seed inp ~ph ())
  done;
  let per_delivery = per first.rx first.delivered in
  let pps = Phase.pps ph in
  let lats = Array.of_list (List.filter (fun x -> x >= 0.0) (Array.to_list first.lat)) in
  let tx_per_delivery = per first.tx first.delivered in
  let layers =
    match tracer with
    | None -> []
    | Some trc ->
        (* One arrival in [sample] becomes a span, keeping the traced
           repetitions inside the span budget. *)
        let reps_est = 1 + (ns_of_s (seconds /. 2.0) / max 1 first.wall) in
        let sample = 1 + (first.rx * reps_est / span_budget) in
        let p = Simladder.probe ~tr:trc ~sample ~keep () in
        let t_phase = clock () in
        p.Simladder.parent <- open_span trc;
        let tph = Phase.create () in
        let words = ref 0.0 in
        let hits = ref 0 and misses = ref 0 and evicts = ref 0 in
        let twall = ref 0 and dlv = ref 0 in
        while !twall < ns_of_s (seconds /. 2.0) do
          let r = rep ~seed inp ~ph:tph ~probe:p () in
          record r;
          twall := !twall + r.wall;
          dlv := !dlv + r.delivered;
          words := !words +. r.words;
          hits := !hits + r.hits;
          misses := !misses + r.misses;
          evicts := !evicts + r.evicts
        done;
        let wall = twall in
        close_span trc ev_phase ~id:p.Simladder.parent ~parent:0 ~t0:t_phase;
        let kept = Array.of_seq (Queue.to_seq p.Simladder.kept) in
        let env, proc, publ, verd, alloc = engine_calls inp kept in
        let r = spanned trc ev_rung (fun _ -> Simladder.engine_rungs ~env kept) in
        let fig2 = spanned trc ev_rung (fun _ -> Fnmix.figure2 ()) in
        let sim =
          List.map
            (fun (k, v) ->
              match k with
              | "sim.process_ns" -> (k, proc)
              | "sim.publish_ns" -> (k, publ)
              | "sim.verdict_ns" -> (k, verd)
              | _ -> (k, v))
            (Simladder.sim_layers p ~wall_ns:!wall ~deliveries:!dlv ~words:!words)
        in
        let per_arrival = per p.Simladder.arrivals !dlv in
        let self_ns = per (!wall - p.Simladder.handler_ns) p.Simladder.arrivals in
        let residual =
          ladder ~workload:"dtn-custody" ~unit:"delivery"
            ~e2e_ns:(Phase.mean_ns ph)
            [
              ("handlers", per_arrival *. per p.Simladder.handler_ns p.Simladder.arrivals);
              ("sim-self", per_arrival *. self_ns);
            ]
        in
        let tpps = Phase.pps tph in
        let fs = Fib.V4.stats env.Env.v4_routes in
        let dispatch =
          proc -. r.Simladder.hinted_ns -. (r.Simladder.fib_ns *. r.Simladder.v4_share)
        in
        Simladder.rung_layers r @ fig2 @ sim
        @ [
            ("progcache.hit_ratio", per !hits (!hits + !misses));
            ("progcache.evict_per_kpkt", 1000.0 *. per !evicts (!hits + !misses));
            ("engine.ns", proc);
            ("engine.dispatch_self_ns", dispatch);
            ("engine.alloc_words", alloc);
            ("fib.insert_ns", per first.insert_ns (2 * custodians));
            ("fib.bytes_per_route", per fs.Fib.V4.total_bytes fs.Fib.V4.routes);
            ("ladder.residual_pct", residual);
            ("trace.overhead_pct", pct (pps -. tpps) tpps);
          ]
  in
  Printf.printf
    "dtn-custody: %d bundles, %d repetitions, %.2f transmissions and %.1f arrivals \
     per delivery\n"
    n !reps tx_per_delivery per_delivery;
  Phase.report "dtn-custody" ph;
  let ok_ratio = 1.0 -. per !failed !attempted in
  {
    attempted = !attempted;
    failed = !failed;
    e2e =
      [
        ("setup_s", setup_s);
        ("pkts_per_s", pps);
        ("mem_mb", mb (!live1 - live0));
        ("ok_ratio", ok_ratio);
        ("pkt_ns_p50", Phase.p50 ph);
        ("pkt_ns_p99", Phase.p99 ph);
        ("tx_per_delivery", tx_per_delivery);
        ("sim_lat_p50_s", median lats);
        ("sim_lat_p99_s", quantile lats 0.99);
      ];
    layers = (match tracer with None -> [] | Some _ -> layers @ first.counts);
    exact =
      [
        ("ok_ratio", ok_ratio);
        ("tx_per_delivery", tx_per_delivery);
        ("sim_lat_p50_s", median lats);
        ("sim_lat_p99_s", quantile lats 0.99);
        ("alloc_words_per_delivery", per (int_of_float first.words) first.delivered);
      ]
      @ first.counts;
    digest = hex first.digest;
  }

(* fattree-k8: a k=8 fat-tree -- 208 nodes, 80 DIP routers
   (Engine.handler) and 128 hosts (Engine.host_handler) -- with
   per-host routes computed at set-up by Topology.shortest_paths and
   Topology.port_of, 100 Mb/s links, and rounds of Poisson arrivals in
   simulated time (open loop in simulated time) between seeded uniform
   host pairs, offered at half of the hosts' link capacity so queueing
   shows in simulated latency, each round drained by Sim.run. Every
   round offers the same traffic one simulated second after the
   previous one, so round 1's simulated outputs stand for all of them
   whatever the number of rounds.

   Why k=8 and not k=16: at k=16 (1344 nodes) the simulator's state is
   a 200 MB heap that every arrival touches at random, so neighbours'
   memory traffic on a shared machine moved its throughput by a
   quarter or more from run to run; and its 20 s of route computation
   left room for a single set-up per run. At k=8 the set-up takes a
   tenth of a second, so [time_setups] can repeat it. *)

open Dip_core
open Harness
module Sim = Dip_netsim.Sim
module Topology = Dip_netsim.Topology
module Bitbuf = Dip_bitbuf.Bitbuf
module Ipaddr = Dip_tables.Ipaddr
module Fib = Dip_tables.Fib
module Prng = Dip_stdext.Prng

let arity = function Full -> 8 | Small -> 4
let round_pkts = function Full -> 12_000 | Small -> 800
let pkt_size = 64
let keep = 4096 (* router arrivals copied for the engine rungs *)

(* Host [i] owns 10.(i/256).(i mod 256).0/24. *)
let addr i = Ipaddr.V4.of_octets 10 (i / 256) (i mod 256) 1

type traffic = { src : int array; dst : int array; at : float array }

let gen ~scale ~seed =
  let k = arity scale in
  let hosts = k * k * k / 4 in
  let g = Prng.create seed in
  let rate = 0.5 *. float_of_int hosts *. Simladder.link_bandwidth /. float_of_int pkt_size in
  let m = round_pkts scale in
  let t = ref 0.0 in
  let src = Array.make m 0 and dst = Array.make m 0 and at = Array.make m 0.0 in
  for j = 0 to m - 1 do
    t := !t +. Prng.exponential g rate;
    at.(j) <- !t;
    let s = Prng.int g hosts in
    let rec pick () =
      let d = Prng.int g hosts in
      if d = s then pick () else d
    in
    src.(j) <- s;
    dst.(j) <- pick ()
  done;
  { src; dst; at }

type net = {
  sim : Sim.t;
  envs : Env.t array;  (** by topology node *)
  is_host : bool array;
  hosts : int array;  (** host index -> topology node *)
  host_of : int array;  (** simulator node -> host index, or -1 *)
  ids : Sim.node_id array;
  routes_s : float;
  instantiate_s : float;
  inserts : int;
  insert_ns : int;
  mutable on_delivery : Sim.node_id -> float -> Bitbuf.t -> unit;
  pacer : Simladder.pacer;
}

let host_handler env = Simladder.sender (Engine.host_handler ~registry env)

let setup scale ph =
  let pacer = Simladder.pacer ph in
  let topo =
    Topology.fat_tree ~latency:Simladder.link_latency ~bandwidth:Simladder.link_bandwidth
      (arity scale)
  in
  let n = topo.Topology.node_count in
  let t0 = clock () in
  let is_host = Array.init n (fun u -> List.length (Topology.neighbors topo u) = 1) in
  let hosts = Array.of_list (List.filter (fun u -> is_host.(u)) (List.init n Fun.id)) in
  (* Per-host routes: a BFS from every host; each router's route
     toward it leaves by the port to its BFS predecessor. *)
  let routes = Array.make n [] in
  Array.iteri
    (fun i h ->
      let pred = Topology.shortest_paths topo ~src:h in
      for r = 0 to n - 1 do
        if (not is_host.(r)) && pred.(r) >= 0 then
          routes.(r) <- (i, Topology.port_of topo r pred.(r)) :: routes.(r)
      done)
    hosts;
  let routes_s = s_of_ns (clock () - t0) in
  let envs = Array.init n (fun u -> Env.create ~name:(Printf.sprintf "n%d" u) ()) in
  let t1 = clock () in
  let inserts = ref 0 in
  Array.iteri
    (fun r l ->
      List.iter
        (fun (i, port) ->
          Fib.V4.insert envs.(r).Env.v4_routes (addr i) ~len:24 port;
          incr inserts)
        l)
    routes;
  let insert_ns = clock () - t1 in
  Array.iteri (fun i h -> envs.(h).Env.local_v4 <- Some (addr i)) hosts;
  let sim = Sim.create () in
  let t2 = clock () in
  let ids =
    Topology.instantiate topo sim
      ~name:(fun u -> Printf.sprintf "n%d" u)
      ~handler:(fun u ->
        Simladder.paced pacer
          (if is_host.(u) then host_handler envs.(u) else Engine.handler ~registry envs.(u)))
  in
  let instantiate_s = s_of_ns (clock () - t2) in
  let host_of = Array.make (Sim.node_count sim) (-1) in
  Array.iteri (fun i h -> host_of.(ids.(h)) <- i) hosts;
  let net =
    {
      sim;
      envs;
      is_host;
      hosts;
      host_of;
      ids;
      routes_s;
      instantiate_s;
      inserts = !inserts;
      insert_ns;
      on_delivery = (fun _ _ _ -> ());
      pacer;
    }
  in
  Sim.on_consume sim (fun node time pkt -> net.on_delivery node time pkt);
  net

(* Swap every node's handler for a timed one (routers: Engine.handler's
   body with its calls timed). *)
let trace_handlers net p =
  Array.iteri
    (fun u id ->
      let h =
        if net.is_host.(u) then Simladder.wrap p (host_handler net.envs.(u))
        else Simladder.wrap ~keep:(fun _ -> true) p (Simladder.router p net.envs.(u))
      in
      Sim.set_handler net.sim id h)
    net.ids

type round = {
  wall : int;
  words : float;
  delivered : int;
  wrong : int;
  tx : int;
  lat : float array;
  digest : int;
}

let payload j =
  let b = Bytes.make (pkt_size - 26) 'x' in
  Bytes.set_int32_be b 0 (Int32.of_int j);
  Bytes.to_string b

(* One round at simulated time [base]: every packet must reach its
   destination host exactly once. *)
let round net tr ~base =
  let m = Array.length tr.src in
  Array.iteri
    (fun j s ->
      let pkt = Realize.ipv4 ~src:(addr s) ~dst:(addr tr.dst.(j)) ~payload:(payload j) () in
      Sim.inject net.sim ~at:(base +. tr.at.(j)) ~node:net.ids.(net.hosts.(s))
        ~port:Simladder.send_port pkt)
    tr.src;
  let lat = Array.make m (-1.0) in
  let wrong = ref 0 and delivered = ref 0 and dig = ref digest_init in
  net.on_delivery <-
    (fun node time pkt ->
      let j = Int32.to_int (Bitbuf.get_uint32 pkt 26) in
      if j < 0 || j >= m || lat.(j) >= 0.0 || net.host_of.(node) <> tr.dst.(j) then
        incr wrong
      else begin
        lat.(j) <- time -. (base +. tr.at.(j));
        incr delivered;
        dig := mix_float (mix !dig j) lat.(j)
      end);
  let tx0 = Simladder.transmissions net.sim in
  let w0 = Gc.minor_words () in
  Simladder.start net.pacer;
  let t0 = clock () in
  Sim.run net.sim;
  let wall = clock () - t0 in
  let words = Gc.minor_words () -. w0 in
  Array.iter (fun l -> if l < 0.0 then incr wrong) lat;
  {
    wall;
    words;
    delivered = !delivered;
    wrong = !wrong;
    tx = Simladder.transmissions net.sim - tx0;
    lat;
    digest = !dig;
  }

let cache_counts net =
  Array.fold_left
    (fun (h, m, e) (env : Env.t) ->
      let c = env.Env.prog_cache in
      (h + Progcache.hits c, m + Progcache.misses c, e + Progcache.evictions c))
    (0, 0, 0) net.envs

let run ~scale ~seed ~seconds ~tracer =
  let tr = gen ~scale ~seed in
  let m = Array.length tr.src in
  let live0 = live_bytes () in
  let ph = Phase.create () in
  let setup_s, net = time_setups (fun () -> setup scale ph) in
  let attempted = ref 0 and failed = ref 0 and rounds = ref 0 in
  let play () =
    let r = round net tr ~base:(float_of_int !rounds) in
    incr rounds;
    attempted := !attempted + m;
    failed := !failed + r.wrong;
    r
  in
  Gc.full_major ();
  let first = play () in
  let live1 = live_bytes () - Phase.bytes ph in
  let arrivals_per_round = Simladder.arrivals net.sim in
  Phase.add ph ~ns:first.wall ~pkts:first.delivered;
  let plain_s = match tracer with None -> seconds | Some _ -> seconds /. 2.0 in
  while ph.Phase.total_ns < ns_of_s plain_s || !rounds < 4 do
    let r = play () in
    Phase.add ph ~ns:r.wall ~pkts:r.delivered
  done;
  let pps = Phase.pps ph in
  let lats = Array.of_list (List.filter (fun x -> x >= 0.0) (Array.to_list first.lat)) in
  let tx_per_delivery = per first.tx first.delivered in
  let layers =
    match tracer with
    | None -> []
    | Some trc ->
        (* One arrival in [sample] becomes spans, keeping the traced
           rounds inside the span budget. *)
        let rounds_est = 1 + (ns_of_s (seconds /. 2.0) / max 1 first.wall) in
        let sample = 1 + (4 * arrivals_per_round * rounds_est / span_budget) in
        let p = Simladder.probe ~tr:trc ~sample ~keep () in
        trace_handlers net p;
        let (h0, m0, e0) = cache_counts net in
        let t_phase = clock () in
        p.Simladder.parent <- open_span trc;
        let tph = Phase.create () in
        let words = ref 0.0 in
        while tph.Phase.total_ns < ns_of_s (seconds /. 2.0) || !rounds < 8 do
          let r = play () in
          words := !words +. r.words;
          Phase.add tph ~ns:r.wall ~pkts:r.delivered
        done;
        let wall = tph.Phase.total_ns and dlv = tph.Phase.total_pkts in
        close_span trc ev_phase ~id:p.Simladder.parent ~parent:0 ~t0:t_phase;
        let (h1, m1, e1) = cache_counts net in
        let kept = Array.of_seq (Queue.to_seq p.Simladder.kept) in
        let env = net.envs.(0) in
        let r = spanned trc ev_rung (fun _ -> Simladder.engine_rungs ~env kept) in
        let copies = Array.map Bitbuf.copy kept in
        let alloc =
          words_per_call (Array.length copies) (fun i ->
              ignore (Engine.process ~registry env ~now:0.0 ~ingress:0 copies.(i)))
        in
        let fig2 = spanned trc ev_rung (fun _ -> Fnmix.figure2 ()) in
        let sim = Simladder.sim_layers p ~wall_ns:wall ~deliveries:dlv ~words:!words in
        let engine_ns = per p.Simladder.process_ns p.Simladder.calls in
        let dispatch = engine_ns -. r.Simladder.hinted_ns -. (r.Simladder.fib_ns *. r.Simladder.v4_share) in
        let per_arrival = per p.Simladder.arrivals dlv in
        let self_ns = per (wall - p.Simladder.handler_ns) p.Simladder.arrivals in
        let e2e_ns = Phase.mean_ns ph in
        let residual =
          ladder ~workload:"fattree-k8" ~unit:"delivery" ~e2e_ns
            [
              ("handlers", per_arrival *. per p.Simladder.handler_ns p.Simladder.arrivals);
              ("sim-self", per_arrival *. self_ns);
            ]
        in
        let tpps = Phase.pps tph in
        let bytes, routes =
          Array.fold_left
            (fun (b, n) (env : Env.t) ->
              let s = Fib.V4.stats env.Env.v4_routes in
              (b + s.Fib.V4.total_bytes, n + s.Fib.V4.routes))
            (0, 0) net.envs
        in
        Simladder.rung_layers r @ fig2 @ sim
        @ [
            ("progcache.hit_ratio", per (h1 - h0) (h1 - h0 + m1 - m0));
            ("progcache.evict_per_kpkt", 1000.0 *. per (e1 - e0) p.Simladder.calls);
            ("engine.ns", engine_ns);
            ("engine.dispatch_self_ns", dispatch);
            ("engine.alloc_words", alloc);
            ("fib.insert_ns", per net.insert_ns net.inserts);
            ("fib.bytes_per_route", per bytes routes);
            ("topology.routes_s", net.routes_s);
            ("topology.instantiate_s", net.instantiate_s);
            ("ladder.residual_pct", residual);
            ("trace.overhead_pct", pct (pps -. tpps) tpps);
          ]
  in
  Printf.printf
    "fattree-k%d: %d nodes, %d rounds of %d packets, %d arrivals per round, \
     routes %.2f s, instantiate %.2f s\n"
    (arity scale) (Array.length net.ids) !rounds m arrivals_per_round net.routes_s
    net.instantiate_s;
  Phase.report "fattree-k8" ph;
  let ok_ratio = 1.0 -. per !failed !attempted in
  let words_per_arrival = first.words /. float_of_int (max 1 arrivals_per_round) in
  {
    attempted = !attempted;
    failed = !failed;
    e2e =
      [
        ("setup_s", setup_s);
        ("pkts_per_s", pps);
        ("mem_mb", mb (live1 - live0));
        ("ok_ratio", ok_ratio);
        ("pkt_ns_p50", Phase.p50 ph);
        ("pkt_ns_p99", Phase.p99 ph);
        ("tx_per_delivery", tx_per_delivery);
        ("sim_lat_p50_s", median lats);
        ("sim_lat_p99_s", quantile lats 0.99);
      ];
    layers;
    exact =
      [
        ("ok_ratio", ok_ratio);
        ("tx_per_delivery", tx_per_delivery);
        ("sim_lat_p50_s", median lats);
        ("sim_lat_p99_s", quantile lats 0.99);
        ("alloc_words_per_arrival", words_per_arrival);
      ];
    digest = hex first.digest;
  }

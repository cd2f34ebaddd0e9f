(* Tests for the unified observability layer: the Dip_obs metrics
   registry and exporters, the engine span recorder (Dip_core.Obs),
   the simulator's registry as exporters absorb it, and the
   program-cache eviction counter. *)

open Dip_core
module Metrics = Dip_obs.Metrics
module Export = Dip_obs.Export
module Ipaddr = Dip_tables.Ipaddr

let v4 = Ipaddr.V4.of_string
let v6 = Ipaddr.V6.of_string
let registry = Ops.default_registry ()

(* Snapshot readers for assertions. *)
let value m name =
  match List.find_opt (fun (n, _, _) -> n = name) (Metrics.snapshot m) with
  | Some (_, _, v) -> v
  | None -> Alcotest.failf "metric %S not in snapshot" name

let counted m name =
  match value m name with
  | Metrics.Counter_v v -> v
  | _ -> Alcotest.failf "%S is not a counter" name

let gauged m name =
  match value m name with
  | Metrics.Gauge_v v -> v
  | _ -> Alcotest.failf "%S is not a gauge" name

let hsnap m name =
  match value m name with
  | Metrics.Histogram_v h -> h
  | _ -> Alcotest.failf "%S is not a histogram" name

(* --- Metrics registry --- *)

let test_counter_gauge_basics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "requests" in
  Metrics.Counter.incr c;
  Metrics.Counter.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Metrics.Counter.get c);
  let g = Metrics.gauge m "depth" in
  Metrics.Gauge.set g 9;
  Metrics.Gauge.set g 2;
  Alcotest.(check int) "gauge keeps last" 2 (Metrics.Gauge.get g);
  Alcotest.(check int) "snapshot counter" 5 (counted m "requests");
  Alcotest.(check int) "snapshot gauge" 2 (gauged m "depth")

let test_same_name_shares_handle () =
  let m = Metrics.create () in
  let a = Metrics.counter m "shared" in
  let b = Metrics.counter m "shared" in
  Metrics.Counter.incr a;
  Metrics.Counter.incr b;
  Alcotest.(check int) "both increments visible" 2 (Metrics.Counter.get a)

let test_kind_mismatch_rejected () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Metrics.gauge: \"x\" is already a counter") (fun () ->
      ignore (Metrics.gauge m "x"));
  Alcotest.check_raises "histogram over counter"
    (Invalid_argument "Metrics.histogram: \"x\" is already a counter") (fun () ->
      ignore (Metrics.histogram m "x"))

let test_histogram_buckets () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  List.iter
    (Metrics.Histogram.observe h)
    [ 0; 1; 3; 1000; -5 (* clamps to 0 *) ];
  Alcotest.(check int) "count" 5 (Metrics.Histogram.count h);
  Alcotest.(check int) "sum" 1004 (Metrics.Histogram.sum h);
  Alcotest.(check int) "max" 1000 (Metrics.Histogram.max_value h);
  let counts = Metrics.Histogram.bucket_counts h in
  Alcotest.(check int) "bucket 0 (v = 0)" 2 counts.(0);
  Alcotest.(check int) "bucket 1 ([1,2))" 1 counts.(1);
  Alcotest.(check int) "bucket 2 ([2,4))" 1 counts.(2);
  Alcotest.(check int) "bucket 10 ([512,1024))" 1 counts.(10);
  Metrics.Histogram.observe h max_int;
  Alcotest.(check int) "last bucket takes the rest" 1
    (Metrics.Histogram.bucket_counts h).(Metrics.Histogram.buckets - 1)

let test_histogram_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "q" in
  Alcotest.(check (float 0.0)) "empty -> 0" 0.0 (Metrics.Histogram.quantile h 0.5);
  List.iter (Metrics.Histogram.observe h) [ 2; 2; 2; 1000 ];
  (* Estimates carry one-bucket (2x) resolution: the p50 of three 2s
     is reported as its bucket's upper bound. *)
  Alcotest.(check (float 1e-9)) "p50 bucket bound" 4.0
    (Metrics.Histogram.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p100 clamped to max" 1000.0
    (Metrics.Histogram.quantile h 1.0);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Metrics.Histogram.quantile") (fun () ->
      ignore (Metrics.Histogram.quantile h 1.5))

(* Recording is a store through a handle: the all-int histogram
   boxes no float. *)
let test_histogram_observe_alloc () =
  let h = Metrics.histogram (Metrics.create ()) "h" in
  for v = 0 to 15 do
    Metrics.Histogram.observe h v
  done;
  let w0 = Gc.minor_words () in
  for v = 0 to 9_999 do
    Metrics.Histogram.observe h (v * 977)
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words for 10k observations" 0.0 words;
  Alcotest.(check int) "all counted" 10_016 (Metrics.Histogram.count h)

(* --- exporters --- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_contains what out needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s contains %S" what needle)
    true (contains ~needle out)

let sample_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter ~help:"packets seen" m "engine.packets" in
  Metrics.Counter.incr ~by:3 c;
  let g = Metrics.gauge m "q.depth" in
  Metrics.Gauge.set g 7;
  let h = Metrics.histogram m "lat.ns" in
  List.iter (Metrics.Histogram.observe h) [ 0; 3; 1000 ];
  m

let test_export_prometheus () =
  let out = Export.prometheus (sample_registry ()) in
  check_contains "prom" out "# TYPE engine_packets counter";
  check_contains "prom" out "# HELP engine_packets packets seen";
  check_contains "prom" out "engine_packets 3";
  check_contains "prom" out "# TYPE q_depth gauge";
  check_contains "prom" out "q_depth 7";
  check_contains "prom" out "# TYPE lat_ns histogram";
  (* Cumulative buckets: 0 <= 1, 3 <= 4, 1000 <= 1024. *)
  check_contains "prom" out "lat_ns_bucket{le=\"1\"} 1";
  check_contains "prom" out "lat_ns_bucket{le=\"4\"} 2";
  check_contains "prom" out "lat_ns_bucket{le=\"1024\"} 3";
  check_contains "prom" out "lat_ns_bucket{le=\"+Inf\"} 3";
  check_contains "prom" out "lat_ns_count 3";
  check_contains "prom" out "lat_ns_sum 1003"

let test_export_json_lines () =
  let out = Export.json_lines (sample_registry ()) in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
  in
  Alcotest.(check int) "one line per metric" 3 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "object per line" true
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  check_contains "json" out "\"name\":\"engine.packets\"";
  check_contains "json" out "\"type\":\"counter\"";
  check_contains "json" out "\"value\":3";
  check_contains "json" out "\"name\":\"q.depth\"";
  check_contains "json" out "\"count\":3";
  check_contains "json" out "\"help\":\"packets seen\""

let test_export_table () =
  let out = Export.table (sample_registry ()) in
  check_contains "table" out "engine.packets";
  check_contains "table" out "q.depth";
  check_contains "table" out "lat.ns";
  check_contains "table" out "histogram";
  check_contains "table" out "n=3"

let test_sanitize () =
  Alcotest.(check string) "dots" "a_b_c" (Export.sanitize "a.b-c");
  Alcotest.(check string) "leading digit" "_9lives" (Export.sanitize "9lives");
  Alcotest.(check string) "kept" "ok_name:x" (Export.sanitize "ok_name:x")

(* --- the engine span recorder --- *)

let fwd_env () =
  let env = Env.create ~name:"r" () in
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
  Dip_ip.Ipv6.add_route env.Env.v6_routes
    (Ipaddr.Prefix.of_string "2001:db8::/32") 1;
  env

let ipv4_pkt () =
  Realize.ipv4 ~src:(v4 "192.0.2.1") ~dst:(v4 "10.1.2.3") ~payload:"x" ()

(* Algorithm 1 plus the verdict's actions, as a simulator handler
   runs them: the verdict is counted in the node's dip.* counters. *)
let run_counted ?obs ?(registry = registry) env pkt =
  let v, _ = Engine.process ?obs ~registry env ~now:0.0 ~ingress:0 pkt in
  ignore (Engine.actions_of_verdict env ~ingress:0 pkt v);
  v

let node_count env name = Dip_netsim.Stats.Counters.get env.Env.counters name

(* Every verdict the node counted, whatever its class. *)
let verdicts env =
  List.fold_left
    (fun acc (n, v) -> if String.starts_with ~prefix:"dip." n then acc + v else acc)
    0
    (Dip_netsim.Stats.Counters.to_list env.Env.counters)

let test_engine_counts () =
  let m = Metrics.create () in
  let obs = Obs.create ~sample_every:1 m in
  let env = fwd_env () in
  for _ = 1 to 5 do
    match run_counted ~obs env (ipv4_pkt ()) with
    | Engine.Forwarded _ -> ()
    | v ->
        Alcotest.failf "unexpected verdict %s"
          (match v with Engine.Dropped r -> r | _ -> "?")
  done;
  Alcotest.(check int) "packets" 5 (verdicts env);
  Alcotest.(check int) "F_32_match runs" 5 (counted m "engine.op.F_32_match.run");
  Alcotest.(check int) "F_source runs" 5 (counted m "engine.op.F_source.run");
  Alcotest.(check int) "no F_FIB runs" 0 (counted m "engine.op.F_FIB.run");
  Alcotest.(check int) "forwarded verdicts" 5 (node_count env "dip.forwarded");
  Alcotest.(check int) "latency spans" 5 (hsnap m "engine.process_ns").Metrics.count;
  Alcotest.(check bool) "sampled nanos accumulated" true
    (counted m "engine.op.F_32_match.ns" > 0);
  (* The node's counters carry the program cache's totals. *)
  Env.publish_cache_stats env;
  Alcotest.(check int) "cache hits" 4 (node_count env "progcache.hit");
  Alcotest.(check int) "cache misses" 1 (node_count env "progcache.miss")

let test_engine_sampling () =
  (* sample_every:4 over 8 packets: every packet counted, packets 4
     and 8 span-timed. *)
  let m = Metrics.create () in
  let obs = Obs.create ~sample_every:4 m in
  let env = fwd_env () in
  for _ = 1 to 8 do
    ignore (run_counted ~obs env (ipv4_pkt ()))
  done;
  Alcotest.(check int) "all packets counted" 8 (verdicts env);
  Alcotest.(check int) "all runs counted" 8 (counted m "engine.op.F_32_match.run");
  Alcotest.(check int) "two spans" 2 (hsnap m "engine.process_ns").Metrics.count

let test_engine_skips_and_unsupported () =
  let m = Metrics.create () in
  let obs = Obs.create ~sample_every:1 m in
  (* A router processing an OPT packet skips the host-tagged F_ver. *)
  let env = fwd_env () in
  Env.set_opt_identity env
    ~secret:(Dip_opt.Drkey.secret_of_string "obs-test-secret!")
    ~hop:1;
  let opt_pkt () =
    Realize.opt ~hops:1 ~session_id:7L ~timestamp:1l
      ~dest_key:(String.make 16 'd') ~payload:"x" ()
  in
  ignore (run_counted ~obs env (opt_pkt ()));
  Alcotest.(check int) "F_ver tag-skipped" 1 (counted m "engine.op.F_ver.skip");
  Alcotest.(check int) "F_mac ran" 1 (counted m "engine.op.F_MAC.run");
  (* A registry without the mandatory F_parm yields Unsupported. *)
  let minimal = Registry.restrict registry [ Opkey.F_32_match; Opkey.F_source ] in
  (match run_counted ~obs ~registry:minimal env (opt_pkt ()) with
  | Engine.Unsupported k -> Alcotest.(check string) "key" "F_parm" (Opkey.name k)
  | _ -> Alcotest.fail "expected Unsupported");
  Alcotest.(check int) "unsupported verdict" 1
    (node_count env "dip.unsupported.F_parm")

let test_engine_drop_counted () =
  let m = Metrics.create () in
  let obs = Obs.create ~sample_every:1 m in
  let env = Env.create ~name:"r" () in
  (* No route installed: F_32_match aborts the run. *)
  (match run_counted ~obs env (ipv4_pkt ()) with
  | Engine.Dropped "no-route" -> ()
  | _ -> Alcotest.fail "expected drop");
  Alcotest.(check int) "dropped verdict" 1 (node_count env "dip.drop.no-route");
  Alcotest.(check int) "abort charged to the FN" 1
    (counted m "engine.op.F_32_match.error");
  Alcotest.(check int) "span still recorded" 1
    (hsnap m "engine.process_ns").Metrics.count

let test_obs_create_validates () =
  Alcotest.check_raises "sample_every >= 1"
    (Invalid_argument "Obs.create: sample_every must be >= 1") (fun () ->
      ignore (Obs.create ~sample_every:0 (Metrics.create ())))

(* --- the simulator's registry, absorbed --- *)

(* The simulator counts each fact once, per node, in its own
   registry; an exporter absorbs that registry into its own. *)
let test_sim_counters_absorbed () =
  let sim = Dip_netsim.Sim.create () in
  let fwd = Dip_netsim.Sim.add_node sim ~name:"fwd" (fun _ ~now:_ ~ingress:_ p ->
      [ Dip_netsim.Sim.Forward (1, p) ]) in
  let sink = Dip_netsim.Sim.add_node sim ~name:"sink" (fun _ ~now:_ ~ingress:_ _ ->
      [ Dip_netsim.Sim.Consume ]) in
  let dropper = Dip_netsim.Sim.add_node sim ~name:"dropper" (fun _ ~now:_ ~ingress:_ _ ->
      [ Dip_netsim.Sim.Drop "policy" ]) in
  Dip_netsim.Sim.connect sim (fwd, 1) (sink, 0);
  let pkt () = Dip_bitbuf.Bitbuf.create 8 in
  Dip_netsim.Sim.inject sim ~at:0.0 ~node:fwd ~port:0 (pkt ());
  Dip_netsim.Sim.inject sim ~at:0.0 ~node:dropper ~port:0 (pkt ());
  Dip_netsim.Sim.run sim;
  let m = Metrics.create () in
  Metrics.absorb m (Dip_netsim.Sim.counters sim);
  Alcotest.(check (list int)) "rx per node" [ 1; 1; 1 ]
    (List.map (counted m) [ "fwd.rx"; "sink.rx"; "dropper.rx" ]);
  Alcotest.(check int) "tx" 1 (counted m "fwd.tx");
  Alcotest.(check int) "consumed" 1 (counted m "sink.consumed");
  Alcotest.(check int) "drop reason" 1 (counted m "dropper.drop.policy");
  Alcotest.(check int) "queue-depth samples" 1
    (hsnap m "sim.link.queue_depth").Metrics.count;
  Alcotest.(check (list string)) "no aggregate or per-link series" []
    (List.filter_map
       (fun (n, _, _) ->
         if String.starts_with ~prefix:"sim." n && n <> "sim.link.queue_depth"
         then Some n
         else None)
       (Metrics.snapshot m))

(* Every exporter emits exactly the registry's name set: run a small
   fat-tree of Engine routers under faults with engine spans
   reporting into one registry, absorb the simulator's registry and
   every router's own counters into it, then read the names back out
   of each rendering. *)
let test_exporters_same_names () =
  let module Sim = Dip_netsim.Sim in
  let module Topology = Dip_netsim.Topology in
  let m = Metrics.create () in
  let obs = Obs.create ~sample_every:1 m in
  let topo = Topology.fat_tree ~latency:1e-5 4 in
  let sim = Sim.create () in
  let envs = ref [] in
  let ids =
    Topology.instantiate topo sim ~name:(Printf.sprintf "n%d")
      ~handler:(fun _ ->
        let env = fwd_env () in
        envs := env :: !envs;
        Engine.handler ~obs ~registry env)
  in
  let faults = Dip_netsim.Faults.attach ~seed:3L sim in
  Dip_netsim.Faults.all_links faults (Dip_netsim.Faults.spec ~drop:0.1 ());
  for i = 0 to 19 do
    Sim.inject sim ~at:(1e-4 *. float_of_int i) ~node:ids.(i mod 4) ~port:9
      (ipv4_pkt ())
  done;
  Sim.run sim;
  Metrics.absorb m (Sim.counters sim);
  List.iter (fun env -> Metrics.absorb m env.Env.counters) !envs;
  let sorted l = List.sort_uniq String.compare l in
  let raw = sorted (List.map (fun (n, _, _) -> n) (Metrics.snapshot m)) in
  let sanitized = sorted (List.map Export.sanitize raw) in
  Alcotest.(check bool) "simulator, engine, node and fault series present" true
    (List.for_all
       (fun n -> List.mem n raw)
       [ "n0.rx"; "sim.link.queue_depth"; "sim.fault.drop"; "engine.op.F_32_match.run";
         "dip.forwarded"; "progcache.hit" ]);
  let lines out = String.split_on_char '\n' out in
  let field_after prefix l =
    let n = String.length prefix in
    if String.length l > n && String.sub l 0 n = prefix then
      let rest = String.sub l n (String.length l - n) in
      Some (List.hd (String.split_on_char (if prefix = "# TYPE " then ' ' else '"') rest))
    else None
  in
  Alcotest.(check (list string)) "prometheus" sanitized
    (sorted (List.filter_map (field_after "# TYPE ") (lines (Export.prometheus m))));
  Alcotest.(check (list string)) "json lines" raw
    (sorted (List.filter_map (field_after "{\"name\":\"") (lines (Export.json_lines m))));
  let table_names =
    List.filter_map
      (fun l ->
        match String.split_on_char '|' l with
        | "" :: cell :: _ :: _ when String.trim cell <> "metric" -> Some (String.trim cell)
        | _ -> None)
      (lines (Export.table m))
  in
  Alcotest.(check (list string)) "table" raw (sorted table_names)

(* One name per fact, end to end: a k=4 fat-tree whose switches are
   custodians, under a fault spec, with a flight ring and an observer
   armed. Every flight event the program cache, custody and the fault
   layer record is named after a written counter of the exported
   registry (the simulator's and every switch's own counters,
   absorbed), and nothing registers the series the Env owns under a
   second name. *)
let test_flight_names_are_counters () =
  let module Sim = Dip_netsim.Sim in
  let module Topology = Dip_netsim.Topology in
  let module Faults = Dip_netsim.Faults in
  let module Flight = Dip_obs.Flight in
  let module Reliable = Host.Reliable in
  let m = Metrics.create () in
  let ring = Flight.create ~pid:0 ~tid:0 () in
  let obs = Obs.create ~sample_every:1 ~flight:ring m in
  let topo = Topology.fat_tree ~latency:1e-5 4 in
  let n = topo.Topology.node_count in
  let is_host u = List.length (Topology.neighbors topo u) = 1 in
  let hosts = List.filter is_host (List.init n Fun.id) |> Array.of_list in
  let edge_of h = List.hd (Topology.neighbors topo h) in
  (* The reliable pair hangs off two edge switches' spare ports; each
     switch's port toward either end follows a BFS tree. *)
  let spare = 50 in
  let edge_s = edge_of hosts.(0) and edge_r = edge_of hosts.(15) in
  let toward node =
    let pred = Topology.shortest_paths topo ~src:node in
    fun u -> if u = node then spare else Topology.port_of topo u pred.(u)
  in
  let to_r = toward edge_r and to_s = toward edge_s in
  let sim = Sim.create () in
  Sim.set_flight sim (Some ring);
  (* The receiver never ACKs custody, so the last custodian's sweep
     needs a deadline for the run to end. *)
  let config = { Custody.default_config with retry_until = 3.0 } in
  let envs = ref [] in
  let ids =
    Array.init n (fun u ->
        let name = Printf.sprintf "n%d" u in
        if is_host u then Sim.add_node sim ~name (fun _ ~now:_ ~ingress:_ _ -> [])
        else begin
          let env = Env.create ~name () in
          Dip_ip.Ipv4.add_route env.Env.v4_routes
            (Ipaddr.Prefix.of_string "10.9.0.1/32") (to_r u);
          Dip_ip.Ipv4.add_route env.Env.v4_routes
            (Ipaddr.Prefix.of_string "10.9.0.2/32") (to_s u);
          Progcache.set_flight env.Env.prog_cache (Some ring);
          envs := env :: !envs;
          Custody.node
            (Custody.add_router ~obs ~flight:ring ~config sim ~registry
               ~env ~name ~out_port:(to_r u) ())
        end)
  in
  List.iter
    (fun (e : Topology.edge) ->
      Sim.connect sim ~latency:e.Topology.latency
        (ids.(e.Topology.u), Topology.port_of topo e.Topology.u e.Topology.v)
        (ids.(e.Topology.v), Topology.port_of topo e.Topology.v e.Topology.u))
    topo.Topology.edges;
  let sender =
    Reliable.add_sender ~custody:true sim ~name:"snd" ~seed:5L ~src:(v4 "10.9.0.2")
      ~dst:(v4 "10.9.0.1") ~out_port:0
  in
  let _recv, recv_node = Reliable.add_receiver sim ~name:"rcv" in
  Sim.connect sim ~latency:1e-5 (Reliable.sender_node sender, 0) (ids.(edge_s), spare);
  Sim.connect sim ~latency:1e-5 (recv_node, 0) (ids.(edge_r), spare);
  let faults = Faults.attach ~seed:11L sim in
  Faults.all_links faults (Faults.spec ~drop:0.05 ());
  for j = 0 to 39 do
    Reliable.send sender ~at:(5e-4 *. float_of_int j) ~payload:(Printf.sprintf "r%d" j)
  done;
  Sim.run sim;
  Metrics.absorb m (Sim.counters sim);
  List.iter (fun env -> Metrics.absorb m env.Env.counters) !envs;
  let written = List.map fst (Metrics.written_counters m) in
  let layers = [ "progcache."; "custody."; "sim.fault." ] in
  let emitted =
    List.sort_uniq String.compare
      (List.filter_map
         (fun e ->
           let name = Flight.id_name e.Flight.ev_id in
           if List.exists (fun prefix -> String.starts_with ~prefix name) layers
           then Some name
           else None)
         (Flight.events ring))
  in
  List.iter
    (fun prefix ->
      Alcotest.(check bool)
        (Printf.sprintf "the ring holds %s events" prefix)
        true
        (List.exists (String.starts_with ~prefix) emitted))
    layers;
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "flight event %s is a written counter" name)
        true (List.mem name written))
    emitted;
  List.iter
    (fun (name, _, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s duplicates an Env series" name)
        false
        (String.starts_with ~prefix:"engine.verdict." name
        || String.starts_with ~prefix:"engine.progcache." name
        || name = "engine.packets"))
    (Metrics.snapshot m)

(* --- program-cache evictions --- *)

let test_progcache_evictions () =
  let env = Env.create ~prog_cache_capacity:1 ~name:"r" () in
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
  Dip_ip.Ipv6.add_route env.Env.v6_routes
    (Ipaddr.Prefix.of_string "2001:db8::/32") 1;
  let p4 () = ipv4_pkt () in
  let p6 () =
    Realize.ipv6 ~src:(v6 "2001:db8::1") ~dst:(v6 "2001:db8::42") ~payload:"x" ()
  in
  let run pkt = ignore (Engine.process ~registry env ~now:0.0 ~ingress:0 pkt) in
  run (p4 ());
  Alcotest.(check int) "first insert evicts nothing" 0
    (Progcache.evictions env.Env.prog_cache);
  run (p6 ());
  Alcotest.(check int) "second program evicts the first" 1
    (Progcache.evictions env.Env.prog_cache);
  run (p4 ());
  Alcotest.(check int) "thrash keeps evicting" 2
    (Progcache.evictions env.Env.prog_cache);
  Env.publish_cache_stats env;
  Alcotest.(check int) "published to node counters" 2
    (Dip_netsim.Stats.Counters.get env.Env.counters "progcache.evict");
  (* A repeat of the cached program is a hit, not an eviction. *)
  run (p4 ());
  Alcotest.(check int) "hit does not evict" 2
    (Progcache.evictions env.Env.prog_cache)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter + gauge" `Quick test_counter_gauge_basics;
          Alcotest.test_case "same name shares handle" `Quick
            test_same_name_shares_handle;
          Alcotest.test_case "kind mismatch rejected" `Quick
            test_kind_mismatch_rejected;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantiles;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "Histogram.observe" `Quick
            test_histogram_observe_alloc;
        ] );
      ( "export",
        [
          Alcotest.test_case "prometheus" `Quick test_export_prometheus;
          Alcotest.test_case "json lines" `Quick test_export_json_lines;
          Alcotest.test_case "table" `Quick test_export_table;
          Alcotest.test_case "sanitize" `Quick test_sanitize;
        ] );
      ( "engine",
        [
          Alcotest.test_case "per-opkey counts" `Quick test_engine_counts;
          Alcotest.test_case "sampling" `Quick test_engine_sampling;
          Alcotest.test_case "skips + unsupported" `Quick
            test_engine_skips_and_unsupported;
          Alcotest.test_case "drops counted" `Quick test_engine_drop_counted;
          Alcotest.test_case "create validates" `Quick test_obs_create_validates;
        ] );
      ( "sim",
        [
          Alcotest.test_case "counters absorbed" `Quick test_sim_counters_absorbed;
          Alcotest.test_case "exporters emit the registry's names" `Quick
            test_exporters_same_names;
          Alcotest.test_case "flight events are named after counters" `Quick
            test_flight_names_are_counters;
        ] );
      ( "progcache",
        [ Alcotest.test_case "evictions" `Quick test_progcache_evictions ] );
    ]

(* Soak test: a randomly generated multi-router DIP network carrying
   mixed traffic from every realized protocol, with conservation and
   determinism checks. This is the "does the whole system hold
   together at scale" test rather than a behaviour-specific one. *)

open Dip_core
module Sim = Dip_netsim.Sim
module Topology = Dip_netsim.Topology
module Ipaddr = Dip_tables.Ipaddr
module Name = Dip_tables.Name

let registry = Ops.default_registry ()
let v4 = Ipaddr.V4.of_string

(* Build a random connected network of DIP routers; node 0 hosts the
   destination prefix, content and OPT destination role. Returns the
   node ids, the simulator counters, the deliveries and the routers'
   environments after running a mixed workload. *)
let run_network ~seed ~nodes ~packets =
  let topo = Topology.random ~seed ~nodes ~degree:3 in
  let sim = Sim.create () in
  let delivered = Deliveries.record sim in
  let name = Name.of_string "/soak/content" in
  let secret = Dip_opt.Drkey.secret_of_string "soak-router-sec!" in
  let envs =
    Array.init nodes (fun i ->
        let env = Env.create ~cache_capacity:16 ~name:(Printf.sprintf "n%d" i) () in
        Env.set_opt_identity env ~secret ~hop:1;
        Env.set_telemetry_identity env ~node_id:i ~queue_depth:(fun () -> 0);
        env)
  in
  (* Shortest-path routes toward node 0 for the IP prefix and the
     content name; node 0 delivers locally. *)
  Array.iteri
    (fun i env ->
      if i = 0 then begin
        env.Env.local_v4 <- Some (v4 "10.0.0.1");
        Dip_tables.Name_fib.insert env.Env.fib name 255
        (* port 255 is unwired: interests reaching node 0 terminate
           there via the cache/producer logic below *)
      end
      else
        match Topology.next_hop topo ~src:i ~dst:0 with
        | Some nh ->
            let port = Topology.port_of topo i nh in
            Dip_ip.Ipv4.add_route env.Env.v4_routes
              (Ipaddr.Prefix.of_string "10.0.0.0/8") port;
            Dip_tables.Name_fib.insert env.Env.fib name port
        | None -> ())
    envs;
  (* Node 0 answers interests directly (producer-at-router). *)
  Fixtures.cache_insert envs.(0) (Name.hash32 name) "soak body";
  let ids =
    (* Every router statically verifies each packet before running it
       (Dip_analysis): the mixed workload must never trip the
       pre-check. *)
    let verify = Dip_analysis.verifier ~registry () in
    Topology.instantiate topo sim
      ~name:(Printf.sprintf "n%d")
      ~handler:(fun i -> Engine.handler ~verify ~registry envs.(i))
  in
  (* Mixed workload injected at random non-zero nodes. *)
  let g = Dip_stdext.Prng.create (Int64.add seed 1L) in
  for k = 0 to packets - 1 do
    let src_node = 1 + Dip_stdext.Prng.int g (nodes - 1) in
    let pkt =
      match k mod 3 with
      | 0 ->
          Realize.ipv4 ~src:(v4 "192.0.2.9") ~dst:(v4 "10.0.0.1")
            ~payload:(Printf.sprintf "ip-%d" k) ()
      | 1 -> Realize.ndn_interest ~name ~payload:"" ()
      | _ ->
          Realize.ipv4_telemetry ~max_hops:8 ~src:(v4 "192.0.2.9")
            ~dst:(v4 "10.0.0.1")
            ~payload:(Printf.sprintf "tel-%d" k) ()
    in
    let report = Dip_analysis.analyze_packet ~registry pkt in
    if not (Dip_analysis.Report.clean report) then
      Alcotest.failf "generated packet %d fails lint: %s" k
        (Option.value ~default:"warning only"
           (Dip_analysis.Report.first_error report));
    Sim.inject sim ~at:(0.001 *. float_of_int k) ~node:ids.(src_node) ~port:99
      pkt
  done;
  Sim.run sim;
  (ids, Sim.counters sim, delivered (), envs)

let total_with counters suffix =
  List.fold_left
    (fun acc (k, v) ->
      if String.length k >= String.length suffix
         && String.sub k (String.length k - String.length suffix)
              (String.length suffix)
            = suffix
      then acc + v
      else acc)
    0
    (Dip_netsim.Stats.Counters.to_list counters)

let test_soak_conservation () =
  let packets = 300 in
  let _, counters, consumed, envs = run_network ~seed:1234L ~nodes:30 ~packets in
  let delivered = List.length consumed in
  let dropped =
    List.fold_left
      (fun acc (k, v) ->
        let has_sub needle hay =
          let n = String.length needle and h = String.length hay in
          let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
          go 0
        in
        if has_sub ".drop." k then acc + v else acc)
      0
      (Dip_netsim.Stats.Counters.to_list counters)
  in
  (* [dip.quiet] is an Env counter, not a simulator one. *)
  let quiet =
    Array.fold_left
      (fun acc env ->
        acc + Dip_netsim.Stats.Counters.get env.Env.counters "dip.quiet")
      0 envs
  in
  (* Every injected packet ends exactly once: delivered, dropped, or
     silently aggregated. A cache response consumes its interest and
     puts one reply on the wire, which in turn is delivered or dropped,
     so the ledger is exact. *)
  Alcotest.(check int)
    (Printf.sprintf "conservation (delivered=%d dropped=%d quiet=%d)" delivered
       dropped quiet)
    packets
    (delivered + dropped + quiet);
  (* The destination actually received IP traffic. *)
  Alcotest.(check bool) "node 0 delivered traffic" true
    (Dip_netsim.Stats.Counters.get counters "n0.consumed" > 0);
  (* Nothing crashed, no packet vanished without an accounting entry:
     rx events at least cover the injections. *)
  Alcotest.(check bool) "rx at least injections" true
    (total_with counters ".rx" >= packets)

let test_soak_deterministic () =
  let snapshot () =
    let _, counters, consumed, _ = run_network ~seed:77L ~nodes:20 ~packets:150 in
    (Dip_netsim.Stats.Counters.to_list counters, List.length consumed)
  in
  Alcotest.(check bool) "identical reruns" true (snapshot () = snapshot ())

let test_soak_seeds_vary () =
  (* Different seeds produce different topologies/workloads but the
     system stays total. *)
  List.iter
    (fun seed ->
      let _, counters, _, _ = run_network ~seed ~nodes:25 ~packets:100 in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld processed traffic" seed)
        true
        (total_with counters ".rx" > 0))
    [ 2L; 3L; 5L; 8L; 13L ]

(* A k=4 fat-tree replays the same round of traffic 20 times, as
   perfbench's fattree workload does. Once the first rounds have sized
   every queue, pool and table, a round leaves nothing behind: the
   live heap after round 20 is the live heap after round 2, within
   64 KB. A per-delivery log kept by the simulator adds some 16 words
   for each of the 18 000 deliveries in between (283 547 words when
   [Sim] kept one). With [drop] > 0 a fault layer drops that share of
   every link's transmissions; a log of injected faults adds some 10
   words for each of the thousands of drops in between. *)
let fat_tree_heap_flat ~drop () =
  let topo = Topology.fat_tree ~latency:1e-5 ~bandwidth:1.25e7 4 in
  let n = topo.Topology.node_count in
  let is_host u = List.length (Topology.neighbors topo u) = 1 in
  let hosts = Array.of_list (List.filter is_host (List.init n Fun.id)) in
  let addr i = Ipaddr.V4.of_octets 10 0 i 1 in
  let envs = Array.init n (fun u -> Env.create ~name:(Printf.sprintf "n%d" u) ()) in
  Array.iteri
    (fun i h ->
      envs.(h).Env.local_v4 <- Some (addr i);
      let pred = Topology.shortest_paths topo ~src:h in
      for r = 0 to n - 1 do
        if (not (is_host r)) && pred.(r) >= 0 then
          Dip_tables.Fib.V4.insert envs.(r).Env.v4_routes (addr i) ~len:24
            (Topology.port_of topo r pred.(r))
      done)
    hosts;
  let sim = Sim.create () in
  let ids =
    Topology.instantiate topo sim ~name:(Printf.sprintf "n%d") ~handler:(fun u ->
        if is_host u then Engine.host_handler ~registry envs.(u)
        else Engine.handler ~registry envs.(u))
  in
  let delivered = ref 0 in
  Sim.on_consume sim (fun _ _ _ -> incr delivered);
  let faults = Dip_netsim.Faults.attach ~seed:22L sim in
  Dip_netsim.Faults.all_links faults (Dip_netsim.Faults.spec ~drop ());
  let g = Dip_stdext.Prng.create 21L in
  let per_round = 1_000 in
  let pairs =
    Array.init per_round (fun _ ->
        let s = Dip_stdext.Prng.int g 16 in
        (s, (s + 1 + Dip_stdext.Prng.int g 15) mod 16))
  in
  let round r =
    Array.iteri
      (fun j (s, d) ->
        let edge = List.hd (Topology.neighbors topo hosts.(s)) in
        Sim.inject sim
          ~at:(float_of_int r +. (1e-5 *. float_of_int j))
          ~node:ids.(edge)
          ~port:(Topology.port_of topo edge hosts.(s))
          (Realize.ipv4 ~src:(addr s) ~dst:(addr d) ~payload:"soak" ()))
      pairs;
    Sim.run sim
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  round 1;
  round 2;
  let after2 = live () in
  for r = 3 to 20 do
    round r
  done;
  let after20 = live () in
  (* The network must stay reachable through both measurements. *)
  ignore (Sys.opaque_identity (sim, envs, faults));
  let dropped =
    Option.value ~default:0 (List.assoc_opt "drop" (Dip_netsim.Faults.counts faults))
  in
  Alcotest.(check bool) "faults dropped packets iff enabled" (drop > 0.0) (dropped > 0);
  Alcotest.(check int) "every packet delivered or dropped" (20 * per_round)
    (!delivered + dropped);
  if abs (after20 - after2) > 8192 then
    Alcotest.failf "live heap moved by %d words from round 2 to round 20 (%d -> %d)"
      (after20 - after2) after2 after20

let () =
  Alcotest.run "soak"
    [
      ( "random-networks",
        [
          Alcotest.test_case "conservation" `Quick test_soak_conservation;
          Alcotest.test_case "deterministic" `Quick test_soak_deterministic;
          Alcotest.test_case "seed sweep" `Quick test_soak_seeds_vary;
        ] );
      ( "memory",
        [
          Alcotest.test_case "fat-tree live heap flat over 20 rounds" `Quick
            (fat_tree_heap_flat ~drop:0.0);
          Alcotest.test_case "lossy fat-tree live heap flat over 20 rounds" `Quick
            (fat_tree_heap_flat ~drop:0.05);
        ] );
    ]

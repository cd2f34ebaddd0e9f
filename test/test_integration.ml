(* Integration tests: whole-network scenarios that exercise several
   libraries at once, plus fuzzing of the packet-facing surfaces. *)

open Dip_core
module Bitbuf = Dip_bitbuf.Bitbuf
module Sim = Dip_netsim.Sim
module Ipaddr = Dip_tables.Ipaddr
module Name = Dip_tables.Name

let registry = Ops.default_registry ()
let v4 = Ipaddr.V4.of_string
let v6 = Ipaddr.V6.of_string

(* --- 1. One router, all five protocols interleaved --- *)

let test_mixed_traffic_single_router () =
  let env = Env.create ~name:"r" () in
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
  Dip_ip.Ipv6.add_route env.Env.v6_routes (Ipaddr.Prefix.of_string "2001:db8::/32") 2;
  let name = Name.of_string "/mixed/content" in
  Dip_tables.Name_fib.insert env.Env.fib name 3;
  Env.set_opt_identity env ~secret:(Dip_opt.Drkey.secret_of_string "mixed-router-sec") ~hop:1;
  Dip_xia.Router.add_route env.Env.xia (Dip_xia.Xid.of_name Dip_xia.Xid.AD "as9") 4;
  let dag =
    Dip_xia.Dag.fallback
      ~intent:(Dip_xia.Xid.of_name Dip_xia.Xid.SID "s")
      ~via:[ Dip_xia.Xid.of_name Dip_xia.Xid.AD "as9" ]
  in
  let cases =
    [
      ( "dip32",
        Realize.ipv4 ~src:(v4 "192.0.2.1") ~dst:(v4 "10.1.1.1") ~payload:"a" (),
        1 );
      ( "dip128",
        Realize.ipv6 ~src:(v6 "2001:db8::1") ~dst:(v6 "2001:db8::2") ~payload:"b" (),
        2 );
      ("ndn", Realize.ndn_interest ~name ~payload:"c" (), 3);
      ("xia", Realize.xia ~dag ~payload:"d" (), 4);
    ]
  in
  (* Interleave the protocols several times over the same router. *)
  for round = 1 to 5 do
    List.iter
      (fun (label, pkt_template, expect_port) ->
        let pkt = Bitbuf.copy pkt_template in
        match Engine.process ~registry env ~now:(float_of_int round) ~ingress:9 pkt with
        | Engine.Forwarded [ p ], _ ->
            Alcotest.(check int) (label ^ " port") expect_port p
        | Engine.Quiet, _ when label = "ndn" && round > 1 ->
            (* later rounds of the same interest aggregate in the PIT *)
            ()
        | Engine.Dropped r, _ -> Alcotest.failf "%s dropped: %s" label r
        | _ -> Alcotest.failf "%s: unexpected verdict" label)
      cases
  done;
  (* The derived NDN+OPT data packet also traverses the same node. *)
  ignore
    (Dip_tables.Pit.insert env.Env.pit ~key:(Name.hash32 name) ~port:7 ~now:9.0
       ~lifetime:10.0);
  let data =
    Realize.ndn_opt_data ~hops:1 ~session_id:3L ~timestamp:0l
      ~dest_key:(String.make 16 'k') ~name ~content:"x" ()
  in
  match Engine.process ~registry env ~now:9.1 ~ingress:3 data with
  | Engine.Forwarded [ 7 ], _ -> ()
  | Engine.Dropped r, _ -> Alcotest.failf "ndn+opt dropped: %s" r
  | _ -> Alcotest.fail "ndn+opt must follow the PIT"

(* --- 2. Heterogeneous deployment: the FN-unsupported notification
   travels back to the source over the simulator --- *)

let test_unsupported_notification_returns_to_source () =
  let sim = Sim.create () in
  (* Source host records control messages it receives. *)
  let notifications = ref [] in
  let source _sim ~now:_ ~ingress:_ pkt =
    if Errors.is_control pkt then begin
      (match Errors.parse pkt with
      | Ok { Errors.key; _ } -> notifications := Opkey.name key :: !notifications
      | Error _ -> ());
      [ Sim.Consume ]
    end
    else [ Sim.Drop "unexpected" ]
  in
  (* A legacy AS router that supports only IP FNs. *)
  let limited = Registry.restrict registry [ Opkey.F_32_match; Opkey.F_source ] in
  let env = Env.create ~name:"legacy" () in
  let s = Sim.add_node sim ~name:"source" source in
  let r = Sim.add_node sim ~name:"legacy" (Engine.handler ~registry:limited env) in
  Sim.connect sim (s, 0) (r, 0);
  (* The source sends an OPT packet that AS cannot serve. *)
  let pkt =
    Realize.opt ~hops:1 ~session_id:1L ~timestamp:0l
      ~dest_key:(String.make 16 'k') ~payload:"" ()
  in
  Sim.inject sim ~at:0.0 ~node:r ~port:0 pkt;
  Sim.run sim;
  Alcotest.(check (list string)) "source notified about F_parm" [ "F_parm" ]
    !notifications;
  Alcotest.(check int) "unsupported counted" 1
    (Dip_netsim.Stats.Counters.get env.Env.counters "dip.unsupported.F_parm")

(* --- 3. Tunnel across a legacy IPv4 core --- *)

let test_tunnel_across_legacy_core () =
  let sim = Sim.create () in
  let delivered = Deliveries.record sim in
  let left _sim ~now:_ ~ingress:_ pkt =
    [ Sim.Forward
        (1, Compat.encapsulate_ipv4 ~src:(v4 "198.51.100.1") ~dst:(v4 "198.51.100.2") pkt);
    ]
  in
  let legacy_table = Dip_tables.Fib.V4.create () in
  Dip_ip.Ipv4.add_route legacy_table (Ipaddr.Prefix.of_string "198.51.100.2/32") 1;
  let renv = Env.create ~name:"right" () in
  Dip_ip.Ipv4.add_route renv.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
  let right sim_ ~now ~ingress pkt =
    match Compat.decapsulate_ipv4 pkt with
    | Error e -> [ Sim.Drop e ]
    | Ok inner -> Engine.handler ~registry renv sim_ ~now ~ingress inner
  in
  let henv = Env.create ~name:"server" () in
  henv.Env.local_v4 <- Some (v4 "10.7.7.7");
  let lb = Sim.add_node sim ~name:"left" left in
  let core = Sim.add_node sim ~name:"core" (Dip_ip.Ipv4.handler legacy_table) in
  let rb = Sim.add_node sim ~name:"right" right in
  let server = Sim.add_node sim ~name:"server" (Engine.handler ~registry henv) in
  Sim.connect sim (lb, 1) (core, 0);
  Sim.connect sim (core, 1) (rb, 0);
  Sim.connect sim (rb, 1) (server, 0);
  Sim.inject sim ~at:0.0 ~node:lb ~port:0
    (Realize.ipv4 ~src:(v4 "10.1.0.1") ~dst:(v4 "10.7.7.7") ~payload:"tunneled" ());
  Sim.run sim;
  match delivered () with
  | [ (node, _, pkt) ] ->
      Alcotest.(check int) "server got it" server node;
      Alcotest.(check string) "payload survives both hops" "tunneled"
        (Packet.payload (Result.get_ok (Packet.parse pkt)))
  | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l)

(* --- 4. Content poisoning, then F_pass enabled on the fly (§2.4) --- *)

let test_fpass_enabled_on_the_fly () =
  let key = Dip_crypto.Siphash.default_key in
  let wrong = Dip_crypto.Siphash.key_of_string "poison-key-16byt" in
  let name = Name.of_string "/popular/item" in
  let env = Env.create ~cache_capacity:8 ~name:"edge" () in
  Dip_tables.Name_fib.insert env.Env.fib name 1;
  let forged_interest = Realize.ndn_interest ~pass:wrong ~name ~payload:"" () in
  (* Phase 1: F_pass disabled — the forged interest gets through and
     the attacker's data poisons the cache. *)
  (match Engine.process ~registry env ~now:0.0 ~ingress:5 (Bitbuf.copy forged_interest) with
  | Engine.Forwarded _, _ -> ()
  | _ -> Alcotest.fail "phase 1: forged interest should pass while disabled");
  let poison = Realize.ndn_data ~name ~content:"POISON" () in
  (match Engine.process ~registry env ~now:0.1 ~ingress:1 poison with
  | Engine.Forwarded _, _ -> ()
  | _ -> Alcotest.fail "phase 1: poison data follows the PIT");
  Alcotest.(check (option string)) "cache now poisoned" (Some "POISON")
    (Env.cache_find env (Name.hash32 name));
  (* Phase 2: the operator detects the attack and enables F_pass. *)
  Env.enable_pass env ~key;
  (match Engine.process ~registry env ~now:1.0 ~ingress:5 (Bitbuf.copy forged_interest) with
  | Engine.Dropped "pass-verify-failed", _ -> ()
  | _ -> Alcotest.fail "phase 2: forged interest must now be dropped");
  (* Genuine clients keep working. *)
  let genuine = Realize.ndn_interest ~pass:key ~name ~payload:"" () in
  match Engine.process ~registry env ~now:1.1 ~ingress:6 genuine with
  | Engine.Responded _, _ -> () (* answered from (poisoned) cache *)
  | Engine.Forwarded _, _ -> ()
  | _ -> Alcotest.fail "phase 2: genuine traffic must still flow"

(* --- 5. OPT end-to-end over the simulator, 3 hops --- *)

let test_opt_three_hop_simulation () =
  let hops = 3 in
  let g = Dip_stdext.Prng.create 404L in
  let secrets = List.init hops (fun _ -> Dip_opt.Drkey.secret_gen g) in
  let dst_secret = Dip_opt.Drkey.secret_gen g in
  let session_id = 0xFEEDL in
  let session_keys = Dip_opt.Drkey.session_keys secrets ~session_id in
  let dest_key = Dip_opt.Drkey.derive dst_secret ~session_id in
  let sim = Sim.create () in
  let mk_router i secret =
    let env = Env.create ~name:(Printf.sprintf "r%d" i) () in
    Env.set_opt_identity env ~secret ~hop:i;
    Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
    Engine.handler ~registry env
  in
  let henv = Env.create ~name:"dst" () in
  Env.register_opt_session henv ~session_id ~session_keys ~dest_key;
  let accept = ref None in
  let host sim_ ~now ~ingress pkt =
    (match Engine.host_process ~registry henv ~now ~ingress pkt with
    | Engine.Delivered, _ -> accept := Some true
    | _ -> accept := Some false);
    ignore sim_;
    [ Sim.Consume ]
  in
  let rs = List.mapi (fun i s -> Sim.add_node sim ~name:(Printf.sprintf "r%d" (i + 1)) (mk_router (i + 1) s)) secrets in
  let h = Sim.add_node sim ~name:"dst" host in
  let rec wire = function
    | a :: (b :: _ as rest) ->
        Sim.connect sim (a, 1) (b, 0);
        wire rest
    | [ last ] -> Sim.connect sim (last, 1) (h, 0)
    | [] -> ()
  in
  wire rs;
  (* OPT composed with DIP-32 so the chain can route it. *)
  let opt_bits = Dip_opt.Header.size_bits ~hops in
  let region = Bitbuf.create ((opt_bits / 8) + 8) in
  Dip_opt.Protocol.source_init region ~base:0 ~hops ~session_id ~timestamp:2l
    ~dest_key ~payload:"simulated";
  Bitbuf.blit
    ~src:(Bitbuf.of_string (Ipaddr.V4.to_wire (v4 "10.0.0.9") ^ Ipaddr.V4.to_wire (v4 "192.0.2.3")))
    ~src_off:0 ~dst:region ~dst_off:(opt_bits / 8) ~len:8;
  let pkt =
    Packet.build
      ~fns:
        [
          Fn.v ~loc:128 ~len:128 Opkey.F_parm;
          Fn.v ~loc:0 ~len:416 Opkey.F_mac;
          Fn.v ~loc:288 ~len:128 Opkey.F_mark;
          Fn.v ~tag:Fn.Host ~loc:0 ~len:opt_bits Opkey.F_ver;
          Fn.v ~loc:opt_bits ~len:32 Opkey.F_32_match;
          Fn.v ~loc:(opt_bits + 32) ~len:32 Opkey.F_source;
        ]
      ~locations:(Bitbuf.to_string region) ~payload:"simulated" ()
  in
  Sim.inject sim ~at:0.0 ~node:(List.hd rs) ~port:0 pkt;
  Sim.run sim;
  Alcotest.(check (option bool)) "verified after 3 simulated hops" (Some true)
    !accept

(* The router's pass over an OPT packet runs its cached compiled
   program; the destination must still verify and deliver it. *)
let test_opt_verifies_after_cache_hit () =
  let g = Dip_stdext.Prng.create 7L in
  let secret = Dip_opt.Drkey.secret_gen g in
  let dst_secret = Dip_opt.Drkey.secret_gen g in
  let session_id = 42L in
  let session_keys = Dip_opt.Drkey.session_keys [ secret ] ~session_id in
  let dest_key = Dip_opt.Drkey.derive dst_secret ~session_id in
  let router = Env.create ~name:"r" () in
  Env.set_opt_identity router ~secret ~hop:1;
  Dip_ip.Ipv4.add_route router.Env.v4_routes (Ipaddr.Prefix.of_string "0.0.0.0/0") 1;
  let opt () = Realize.opt ~hops:1 ~session_id ~timestamp:1l ~dest_key ~payload:"pl" () in
  ignore (Engine.process ~registry router ~now:0.0 ~ingress:0 (opt ()));
  let pkt = opt () in
  (match Engine.process ~registry router ~now:0.0 ~ingress:0 pkt with
  | Engine.Dropped "no-forwarding-decision", _ -> () (* OPT has no fwd FN *)
  | Engine.Dropped r, _ -> Alcotest.failf "router dropped: %s" r
  | _ -> Alcotest.fail "router: unexpected verdict");
  Alcotest.(check int) "router pass hit the cache" 1 (Progcache.hits router.Env.prog_cache);
  let host = Env.create ~name:"h" () in
  Env.register_opt_session host ~session_id ~session_keys ~dest_key;
  match Engine.host_process ~registry host ~now:0.0 ~ingress:0 pkt with
  | Engine.Delivered, _ -> ()
  | Engine.Dropped r, _ -> Alcotest.failf "verify failed after a cache hit: %s" r
  | _ -> Alcotest.fail "expected delivery"

(* --- 5b. Telemetry reads real queue state (F_tel + link queues) --- *)

let test_telemetry_reports_real_queue () =
  let sim = Sim.create () in
  let delivered = Deliveries.record sim in
  let env = Env.create ~name:"r" () in
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
  let r_id = ref (-1) in
  Env.set_telemetry_identity env ~node_id:42 ~queue_depth:(fun () ->
      Sim.queue_depth sim !r_id 1);
  let registry = Ops.default_registry () in
  let r = Sim.add_node sim ~name:"r" (Engine.handler ~registry env) in
  r_id := r;
  let sink = Sim.add_node sim ~name:"sink" (fun _ ~now:_ ~ingress:_ _ -> [ Sim.Consume ]) in
  (* Slow egress link: a burst builds a real queue. *)
  Sim.connect sim ~latency:0.0 ~bandwidth:10_000.0 (r, 1) (sink, 0);
  for i = 0 to 19 do
    Sim.inject sim
      ~at:(1e-6 *. float_of_int i)
      ~node:r ~port:0
      (Realize.ipv4_telemetry ~max_hops:2 ~src:(v4 "192.0.2.1")
         ~dst:(v4 "10.0.0.1") ~payload:(String.make 400 'q') ())
  done;
  Sim.run sim;
  (* The last packets of the burst saw a deep queue. *)
  let depths =
    List.filter_map
      (fun (_, _, pkt) ->
        match Packet.parse pkt with
        | Ok view -> (
            match
              Telemetry.read pkt ~base:view.Packet.loc_base
                ~region_bytes:(Telemetry.region_size ~max_hops:2)
            with
            | [ rec1 ], _ -> Some rec1.Telemetry.queue_depth
            | _ -> None)
        | Error _ -> None)
      (delivered ())
  in
  Alcotest.(check int) "all delivered with telemetry" 20 (List.length depths);
  Alcotest.(check bool)
    (Printf.sprintf "max observed depth %d > 5"
       (List.fold_left max 0 depths))
    true
    (List.fold_left max 0 depths > 5)

(* --- 6. Fuzzing --- *)

let prop_parse_never_raises =
  QCheck.Test.make ~name:"fuzz: Packet.parse total on random bytes" ~count:2000
    QCheck.(string_of_size (QCheck.Gen.int_range 0 64))
    (fun s ->
      match Packet.parse (Bitbuf.of_string s) with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let prop_engine_never_raises_on_corruption =
  (* Take a valid packet of each protocol, corrupt one random byte,
     and require a clean verdict (never an exception). *)
  let mk_env () =
    let env = Env.create ~name:"fz" () in
    Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "0.0.0.0/0") 1;
    Dip_ip.Ipv6.add_route env.Env.v6_routes (Ipaddr.Prefix.of_string "::/0") 1;
    Dip_tables.Name_fib.insert env.Env.fib (Name.of_string "/f") 1;
    Env.set_opt_identity env ~secret:(Dip_opt.Drkey.secret_of_string "fuzz-router-sec!") ~hop:1;
    env
  in
  let templates =
    [
      Realize.ipv4 ~src:(v4 "1.2.3.4") ~dst:(v4 "5.6.7.8") ~payload:"pl" ();
      Realize.ipv6 ~src:(v6 "::1") ~dst:(v6 "::2") ~payload:"pl" ();
      Realize.ndn_interest ~name:(Name.of_string "/f") ~payload:"pl" ();
      Realize.opt ~hops:1 ~session_id:1L ~timestamp:0l
        ~dest_key:(String.make 16 'k') ~payload:"pl" ();
      Realize.xia
        ~dag:(Dip_xia.Dag.direct (Dip_xia.Xid.of_name Dip_xia.Xid.SID "s"))
        ~payload:"pl" ();
    ]
  in
  QCheck.Test.make ~name:"fuzz: engine total under single-byte corruption"
    ~count:2000
    QCheck.(pair (int_range 0 4) (pair small_nat (int_range 0 255)))
    (fun (ti, (pos, value)) ->
      let env = mk_env () in
      let pkt = Bitbuf.copy (List.nth templates ti) in
      let pos = pos mod Bitbuf.length pkt in
      Bitbuf.set_uint8 pkt pos value;
      match Engine.process ~registry env ~now:0.0 ~ingress:0 pkt with
      | _, _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "engine raised %s (template %d, byte %d=%02x)"
            (Printexc.to_string e) ti pos value)

let prop_host_engine_never_raises =
  QCheck.Test.make ~name:"fuzz: host engine total on random bytes" ~count:1000
    QCheck.(string_of_size (QCheck.Gen.int_range 0 200))
    (fun s ->
      let env = Env.create ~name:"h" () in
      match
        Engine.host_process ~registry env ~now:0.0 ~ingress:0 (Bitbuf.of_string s)
      with
      | _, _ -> true
      | exception _ -> false)

let prop_xia_decode_never_raises =
  QCheck.Test.make ~name:"fuzz: XIA packet decode total" ~count:2000
    QCheck.(string_of_size (QCheck.Gen.int_range 0 128))
    (fun s ->
      match
        Dip_xia.Router.decode_slice (Bytes.of_string s) ~pos:0
          ~len:(String.length s)
      with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let prop_engine_total_on_random_constructions =
  (* Arbitrary *well-formed* packets: random FN triples with random
     keys over a random locations region. Whatever nonsense the host
     asks for, Algorithm 1 must return a verdict, never raise. *)
  let arb =
    QCheck.make
      ~print:(fun (fns, loc_len, _) ->
        Printf.sprintf "%d FNs over %d bytes" (List.length fns) loc_len)
      QCheck.Gen.(
        let* loc_len = int_range 1 96 in
        let* nfns = int_range 0 6 in
        let* fns =
          list_repeat nfns
            (let* key = int_range 1 15 in
             let* len = int_range 1 (8 * loc_len) in
             let* loc = int_range 0 ((8 * loc_len) - len) in
             let* host = bool in
             return (loc, len, key, host))
        in
        let* seed = int_range 0 10000 in
        return (fns, loc_len, seed))
  in
  QCheck.Test.make ~name:"fuzz: engine total on random well-formed packets"
    ~count:1500 arb
    (fun (fns, loc_len, seed) ->
      let fns =
        List.map
          (fun (loc, len, key, host) ->
            Dip_core.Fn.v
              ~tag:(if host then Dip_core.Fn.Host else Dip_core.Fn.Router)
              ~loc ~len
              (Option.get (Dip_core.Opkey.of_int key)))
          fns
      in
      let g = Dip_stdext.Prng.create (Int64.of_int seed) in
      let locations = Bytes.to_string (Dip_stdext.Prng.bytes g loc_len) in
      let pkt = Packet.build ~fns ~locations ~payload:"fz" () in
      let env = Env.create ~cache_capacity:4 ~name:"fz" () in
      Env.set_opt_identity env
        ~secret:(Dip_opt.Drkey.secret_of_string "fuzz-router-sec!")
        ~hop:1;
      Env.enable_pass env ~key:Dip_crypto.Siphash.default_key;
      match Engine.process ~registry env ~now:0.0 ~ingress:0 pkt with
      | _, _ -> (
          match Engine.host_process ~registry env ~now:0.0 ~ingress:0 pkt with
          | _, _ -> true
          | exception e ->
              QCheck.Test.fail_reportf "host engine raised %s"
                (Printexc.to_string e))
      | exception e ->
          QCheck.Test.fail_reportf "engine raised %s" (Printexc.to_string e))

(* --- 7. PIT multicast fanout delivers independent copies --- *)

let test_pit_fanout_independent_copies () =
  (* Regression: the engine handler used to hand the {e same} buffer
     to every fanout port, so a downstream mutation (hop-limit
     decrement, header rewrite) bled into the sibling deliveries. *)
  let sim = Sim.create () in
  let env = Env.create ~name:"r" () in
  let name = Name.of_string "/fan/out" in
  let key = Name.hash32 name in
  ignore (Dip_tables.Pit.insert env.Env.pit ~key ~port:1 ~now:0.0 ~lifetime:10.0);
  ignore (Dip_tables.Pit.insert env.Env.pit ~key ~port:2 ~now:0.0 ~lifetime:10.0);
  let r = Sim.add_node sim ~name:"r" (Engine.handler ~registry env) in
  let got = ref [] in
  let sink _ ~now:_ ~ingress:_ pkt =
    got := pkt :: !got;
    [ Sim.Consume ]
  in
  let a = Sim.add_node sim ~name:"a" sink in
  let b = Sim.add_node sim ~name:"b" sink in
  Sim.connect sim (r, 1) (a, 0);
  Sim.connect sim (r, 2) (b, 0);
  Sim.inject sim ~at:0.0 ~node:r ~port:3
    (Realize.ndn_data ~name ~content:"multicast" ());
  Sim.run sim;
  match !got with
  | [ p2; p1 ] ->
      Alcotest.(check string) "same bytes on both ports"
        (Bitbuf.to_string p1) (Bitbuf.to_string p2);
      (* Clobber one copy end to end; the sibling must not move. *)
      let sibling = Bitbuf.to_string p2 in
      for i = 0 to Bitbuf.length p1 - 1 do
        Bitbuf.set_uint8 p1 i 0xFF
      done;
      Alcotest.(check string) "hop limit and payload independent" sibling
        (Bitbuf.to_string p2)
  | l -> Alcotest.failf "expected a 2-port fanout, got %d deliveries"
           (List.length l)

(* --- 8. One event loop: Sim.run ≡ Sim.run_batched over the same handlers --- *)

(* A k=4 fat-tree of Engine routers and hosts, host-to-host DIP-32
   traffic injected at the source hosts' edge switches, and a reliable
   sender/receiver pair hung off two edge switches, over links that
   lose 5% of transmissions: delivery, departure and retransmit timers
   interleave with router arrivals. Returns the simulator, the router
   predicate, the sender, and a factory building a fresh copy of a
   node's environment (by simulator id) — what a pool's snapshot needs
   to run that node's worker environments. *)
let lossy_fat_tree () =
  let module Topology = Dip_netsim.Topology in
  let module Reliable = Host.Reliable in
  let topo = Topology.fat_tree ~latency:1e-5 ~bandwidth:1.25e7 4 in
  let n = topo.Topology.node_count in
  let is_host u = List.length (Topology.neighbors topo u) = 1 in
  let hosts = List.filter is_host (List.init n Fun.id) |> Array.of_list in
  let edge_of h = List.hd (Topology.neighbors topo h) in
  (* Per node, the routes (newest first) and local address its
     environment is built with. *)
  let routes = Array.make n [] and local = Array.make n None in
  (* Every router routes [prefix] along a BFS tree toward [node]; the
     router at [node] itself (if any) uses [last_port]. *)
  let route_toward ~node ?last_port prefix =
    let pred = Topology.shortest_paths topo ~src:node in
    for r = 0 to n - 1 do
      if not (is_host r) then
        let port =
          if r = node then last_port
          else if pred.(r) >= 0 then Some (Topology.port_of topo r pred.(r))
          else None
        in
        Option.iter (fun port -> routes.(r) <- (prefix, port) :: routes.(r)) port
    done
  in
  let host_addr i = Printf.sprintf "10.0.%d.1" i in
  Array.iteri
    (fun i h ->
      route_toward ~node:h (Printf.sprintf "10.0.%d.0/24" i);
      local.(h) <- Some (v4 (host_addr i)))
    hosts;
  let spare = 50 in
  let edge_s = edge_of hosts.(0) and edge_r = edge_of hosts.(15) in
  route_toward ~node:edge_s ~last_port:spare "10.9.0.2/32";
  route_toward ~node:edge_r ~last_port:spare "10.9.0.1/32";
  let mk_env u =
    let env = Env.create ~name:(Printf.sprintf "n%d" u) () in
    List.iter
      (fun (prefix, port) ->
        Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string prefix)
          port)
      (List.rev routes.(u));
    env.Env.local_v4 <- local.(u);
    env
  in
  let sim = Sim.create () in
  let ids =
    Topology.instantiate topo sim
      ~name:(Printf.sprintf "n%d")
      ~handler:(fun u ->
        if is_host u then Engine.host_handler ~registry (mk_env u)
        else Engine.handler ~registry (mk_env u))
  in
  let sender =
    Reliable.add_sender sim ~name:"snd" ~seed:5L ~src:(v4 "10.9.0.2")
      ~dst:(v4 "10.9.0.1") ~out_port:0
  in
  let _recv, recv_node = Reliable.add_receiver sim ~name:"rcv" in
  Sim.connect sim ~latency:1e-5 (Reliable.sender_node sender, 0) (ids.(edge_s), spare);
  Sim.connect sim ~latency:1e-5 (recv_node, 0) (ids.(edge_r), spare);
  let faults = Dip_netsim.Faults.attach ~seed:11L sim in
  Dip_netsim.Faults.all_links faults (Dip_netsim.Faults.spec ~drop:0.05 ());
  let g = Dip_stdext.Prng.create 17L in
  for j = 0 to 239 do
    let s = Dip_stdext.Prng.int g 16 in
    let d = (s + 1 + Dip_stdext.Prng.int g 15) mod 16 in
    let e = edge_of hosts.(s) in
    (* Four packets per instant, so same-instant windows form. *)
    Sim.inject sim
      ~at:(1e-4 *. float_of_int (j / 4))
      ~node:ids.(e)
      ~port:(Topology.port_of topo e hosts.(s))
      (Realize.ipv4 ~src:(v4 (host_addr s)) ~dst:(v4 (host_addr d))
         ~payload:(Printf.sprintf "h%d" j) ())
  done;
  for j = 0 to 39 do
    Reliable.send sender ~at:(5e-4 *. float_of_int j)
      ~payload:(Printf.sprintf "r%d" j)
  done;
  let routers = Array.make (Sim.node_count sim) false in
  let topo_of = Array.make (Sim.node_count sim) (-1) in
  Array.iteri
    (fun u id ->
      topo_of.(id) <- u;
      if not (is_host u) then routers.(id) <- true)
    ids;
  (sim, (fun id -> routers.(id)), sender, fun id -> mk_env topo_of.(id))

(* Two runs of [lossy_fat_tree], each with its recorded deliveries,
   agree on every delivery (node, time and bytes), every counter and
   the final clock. *)
let check_same_outcome label a b =
  let outcome (sim, delivered) =
    ( List.map
        (fun (node, time, pkt) -> (node, time, Bitbuf.to_string pkt))
        (delivered ()),
      Dip_netsim.Stats.Counters.to_list (Sim.counters sim),
      Sim.now sim )
  in
  let consumed, counters, now = outcome a in
  let b_consumed, b_counters, b_now = outcome b in
  Alcotest.(check bool) "traffic delivered" true (List.length consumed > 200);
  Alcotest.(check (list (triple int (float 0.0) string)))
    (label ^ ": same deliveries") consumed b_consumed;
  Alcotest.(check (list (pair string int)))
    (label ^ ": same counters") counters b_counters;
  Alcotest.(check (float 0.0)) (label ^ ": same final clock") now b_now

let test_run_equals_run_batched () =
  let seq_sim, _, sender, _ = lossy_fat_tree () in
  let seq_delivered = Deliveries.record seq_sim in
  Sim.run seq_sim;
  let stats = Host.Reliable.sender_stats sender in
  Alcotest.(check bool) "losses forced retransmissions" true
    (stats.Host.Reliable.transmissions > stats.Host.Reliable.sent);
  let bat_sim, batchable, _, _ = lossy_fat_tree () in
  let bat_delivered = Deliveries.record bat_sim in
  let widest = ref 0 in
  Sim.run_batched ~window:0.0 bat_sim ~batchable ~exec:(fun items ->
      widest := max !widest (Array.length items);
      Array.map
        (fun (it : Sim.batch_item) ->
          Sim.node_handler bat_sim it.Sim.b_node bat_sim ~now:it.Sim.b_time
            ~ingress:it.Sim.b_port it.Sim.b_packet)
        items);
  Alcotest.(check bool) "windows held several arrivals" true (!widest > 1);
  check_same_outcome "run_batched" (seq_sim, seq_delivered) (bat_sim, bat_delivered)

(* The same differential with every router behind a worker pool built
   from the router's own environment: [Runner.run_parallel
   ~window:0.0] is [Sim.run], at one domain and across domains. *)
let test_run_equals_run_parallel () =
  let seq_sim, _, _, _ = lossy_fat_tree () in
  let seq_delivered = Deliveries.record seq_sim in
  Sim.run seq_sim;
  List.iter
    (fun domains ->
      let sim, is_router, _, mk_env = lossy_fat_tree () in
      let delivered = Deliveries.record sim in
      let pools =
        List.filter_map
          (fun id ->
            if is_router id then
              Some
                ( id,
                  Dip_mcore.Pool.create ~domains
                    (Dip_mcore.Snapshot.v ~registry
                       ~mk_env:(fun _ -> mk_env id)
                       ()) )
            else None)
          (List.init (Sim.node_count sim) Fun.id)
      in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun (_, pool) -> Dip_mcore.Pool.shutdown pool) pools)
        (fun () -> Dip_mcore.Runner.run_parallel ~window:0.0 sim ~pools);
      check_same_outcome
        (Printf.sprintf "run_parallel at %d domain(s)" domains)
        (seq_sim, seq_delivered) (sim, delivered))
    [ 1; 2 ]

(* The event order, pinned across revisions of the simulator: an FNV-1a
   hash over every delivery (node, time bits, bytes), every counter and
   the final clock of one [lossy_fat_tree] run. A change to the event
   queue or the link model that reorders same-instant events, moves a
   timestamp by one ulp or changes a counter changes the hash. The
   event order has held since before the event heap moved to
   struct-of-arrays storage. The constant moved once, when the fault
   layer's counters were renamed from fault.<kind> to
   sim.fault.<kind>: with the old names (re-sorted) the same run
   hashes to the earlier constant, 5627019c13faa0f2. *)
let event_order_hash sim delivered =
  let h = ref 0xcbf29ce484222325L in
  let byte b =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (b land 0xff))) 0x100000001b3L
  in
  let int64 x =
    for i = 0 to 7 do
      byte (Int64.to_int (Int64.shift_right_logical x (8 * i)))
    done
  in
  let int x = int64 (Int64.of_int x) in
  let string s =
    int (String.length s);
    String.iter (fun c -> byte (Char.code c)) s
  in
  List.iter
    (fun (node, time, pkt) ->
      int node;
      int64 (Int64.bits_of_float time);
      string (Bitbuf.to_string pkt))
    delivered;
  List.iter
    (fun (name, v) ->
      string name;
      int v)
    (Dip_netsim.Stats.Counters.to_list (Sim.counters sim));
  int64 (Int64.bits_of_float (Sim.now sim));
  Printf.sprintf "%016Lx" !h

let test_event_order_pinned () =
  let sim, _, _, _ = lossy_fat_tree () in
  let delivered = Deliveries.record sim in
  Sim.run sim;
  Alcotest.(check string)
    "event-order hash" "3e99039d2421084b" (event_order_hash sim (delivered ()))

let nested_v4_router ?prog_cache_capacity name =
  let env = Env.create ?prog_cache_capacity ~name () in
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.32.0.0/11") 2;
  env

(* Two routers with the same nested routes: one runs a throwaway
   program per packet (cache off), the other its cached compiled
   program (§4.1's pre-resolved, unrolled dispatch). *)
let prop_cache_off_hit_parity =
  let off = nested_v4_router ~prog_cache_capacity:0 "off" in
  let hit = nested_v4_router "hit" in
  let pkt dst = Realize.ipv4 ~src:(v4 "9.9.9.9") ~dst ~payload:"" () in
  ignore (Engine.process ~registry hit ~now:0.0 ~ingress:0 (pkt (v4 "10.0.0.1")));
  QCheck.Test.make ~name:"fuzz: cache off = cache hit on DIP-32" ~count:500
    QCheck.int32
    (fun dst ->
      let a = pkt dst in
      let b = Bitbuf.copy a in
      let hits = Progcache.hits hit.Env.prog_cache in
      let va, _ = Engine.process ~registry off ~now:0.0 ~ingress:0 a in
      let vb, _ = Engine.process ~registry hit ~now:0.0 ~ingress:0 b in
      Progcache.hits hit.Env.prog_cache = hits + 1 && va = vb && Bitbuf.equal a b)

(* --- 7. Compiled programs against the Algorithm 1 interpreter --- *)

let show_verdict = function
  | Engine.Forwarded p -> "fwd:" ^ String.concat "," (List.map string_of_int p)
  | Engine.Delivered -> "deliver"
  | Engine.Responded _ -> "respond"
  | Engine.Quiet -> "quiet"
  | Engine.Dropped r -> "drop:" ^ r
  | Engine.Unsupported k -> "unsup:" ^ Opkey.name k

(* Same shape, different destination: the router's cached compiled
   program and the literal interpreter (test/algorithm1_ref.ml) agree. *)
let test_compiled_matches_interpreter () =
  let router () =
    let env = Env.create ~name:"r" () in
    Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 3;
    env
  in
  let compiled = router () and interp = router () in
  let pkt dst = Realize.ipv4 ~src:(v4 "192.0.2.1") ~dst:(v4 dst) ~payload:"xx" () in
  ignore (Engine.process ~registry compiled ~now:0.0 ~ingress:0 (pkt "10.1.2.3"));
  List.iter
    (fun dst ->
      let a = pkt dst and b = pkt dst in
      let hits = Progcache.hits compiled.Env.prog_cache in
      let vc, _ = Engine.process ~registry compiled ~now:0.0 ~ingress:0 a in
      let vi, _ = Algorithm1_ref.process ~registry interp ~now:0.0 ~ingress:0 b in
      Alcotest.(check int) ("compiled program reused for " ^ dst) (hits + 1)
        (Progcache.hits compiled.Env.prog_cache);
      Alcotest.(check string) ("verdict for " ^ dst) (show_verdict vi) (show_verdict vc);
      Alcotest.(check bool) ("bytes for " ^ dst) true (Bitbuf.equal a b))
    [ "10.1.2.3"; "10.250.0.9"; "203.0.113.5" ]

(* Randomized destinations through a cache-hit router and the
   Algorithm 1 interpreter must agree on verdict and bytes. *)
let prop_compiled_interpreter_parity =
  let compiled = nested_v4_router "compiled" in
  let interp = nested_v4_router ~prog_cache_capacity:0 "interp" in
  let pkt dst = Realize.ipv4 ~src:(v4 "9.9.9.9") ~dst ~payload:"" () in
  ignore (Engine.process ~registry compiled ~now:0.0 ~ingress:0 (pkt (v4 "10.0.0.1")));
  QCheck.Test.make ~name:"fuzz: compiled/interpreter parity on DIP-32" ~count:500
    QCheck.int32
    (fun dst ->
      let a = pkt dst in
      let b = Bitbuf.copy a in
      let hits = Progcache.hits compiled.Env.prog_cache in
      let vc, _ = Engine.process ~registry compiled ~now:0.0 ~ingress:0 a in
      let vi, _ = Algorithm1_ref.process ~registry interp ~now:0.0 ~ingress:0 b in
      Progcache.hits compiled.Env.prog_cache = hits + 1 && vc = vi && Bitbuf.equal a b)

let () =
  Alcotest.run "integration"
    [
      ( "scenarios",
        [
          Alcotest.test_case "mixed traffic, one router" `Quick
            test_mixed_traffic_single_router;
          Alcotest.test_case "unsupported-FN notification" `Quick
            test_unsupported_notification_returns_to_source;
          Alcotest.test_case "tunnel across legacy core" `Quick
            test_tunnel_across_legacy_core;
          Alcotest.test_case "F_pass enabled on the fly" `Quick
            test_fpass_enabled_on_the_fly;
          Alcotest.test_case "OPT over 3 simulated hops" `Quick
            test_opt_three_hop_simulation;
          Alcotest.test_case "OPT verifies after a cache-hit hop" `Quick
            test_opt_verifies_after_cache_hit;
          Alcotest.test_case "telemetry reads real queues" `Quick
            test_telemetry_reports_real_queue;
          Alcotest.test_case "PIT fanout copies independent" `Quick
            test_pit_fanout_independent_copies;
          Alcotest.test_case "Sim.run ≡ run_batched on a lossy fat-tree"
            `Quick test_run_equals_run_batched;
          Alcotest.test_case "Sim.run ≡ run_parallel on a lossy fat-tree"
            `Quick test_run_equals_run_parallel;
          Alcotest.test_case "event order pinned on a lossy fat-tree" `Quick
            test_event_order_pinned;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_parse_never_raises;
          QCheck_alcotest.to_alcotest prop_engine_never_raises_on_corruption;
          QCheck_alcotest.to_alcotest prop_host_engine_never_raises;
          QCheck_alcotest.to_alcotest prop_xia_decode_never_raises;
          QCheck_alcotest.to_alcotest prop_engine_total_on_random_constructions;
          QCheck_alcotest.to_alcotest prop_cache_off_hit_parity;
          QCheck_alcotest.to_alcotest prop_compiled_interpreter_parity;
        ] );
      ( "compile",
        [
          Alcotest.test_case "parity with interpreter" `Quick
            test_compiled_matches_interpreter;
        ] );
    ]

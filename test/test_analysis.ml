(* Tests for Dip_analysis: the static FN-program verifier. Every
   check class must fire on a crafted bad program and stay silent on
   the §3 realizations. *)

open Dip_core
module Bitbuf = Dip_bitbuf.Bitbuf
module Field = Dip_bitbuf.Field
module Ipaddr = Dip_tables.Ipaddr
module Name = Dip_tables.Name
module Report = Dip_analysis.Report
module Topology = Dip_netsim.Topology

let v4 = Ipaddr.V4.of_string
let v6 = Ipaddr.V6.of_string
let reg = Ops.default_registry ()
let dest_key = String.make 16 'k'
let name = Name.of_string "/a/b"

let section3 () =
  [
    ( "ipv4",
      Realize.ipv4 ~src:(v4 "192.0.2.1") ~dst:(v4 "10.0.0.1") ~payload:"x" () );
    ("ipv6", Realize.ipv6 ~src:(v6 "::1") ~dst:(v6 "::2") ~payload:"x" ());
    ("ndn interest", Realize.ndn_interest ~name ~payload:"" ());
    ("ndn data", Realize.ndn_data ~name ~content:"x" ());
    ( "opt",
      Realize.opt ~hops:3 ~session_id:1L ~timestamp:0l ~dest_key ~payload:"x" () );
    ( "ndn+opt",
      Realize.ndn_opt_data ~hops:3 ~session_id:1L ~timestamp:0l ~dest_key ~name
        ~content:"x" () );
    ( "xia",
      Realize.xia
        ~dag:(Dip_xia.Dag.direct (Dip_xia.Xid.of_name Dip_xia.Xid.SID "s"))
        ~payload:"x" () );
  ]

let has check r = List.exists (fun d -> d.Report.check = check) r.Report.diags

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let has_error check r =
  List.exists
    (fun d -> d.Report.check = check && d.Report.severity = Report.Error)
    r.Report.diags

(* The OPT program of Realize.opt (§3), as an FN list. *)
let opt_fns =
  [
    Fn.v ~loc:128 ~len:128 Opkey.F_parm;
    Fn.v ~loc:0 ~len:416 Opkey.F_mac;
    Fn.v ~loc:288 ~len:128 Opkey.F_mark;
    Fn.v ~tag:Fn.Host ~loc:0 ~len:544 Opkey.F_ver;
  ]

(* --- the §3 realizations must be accepted --- *)

let test_section3_clean () =
  List.iter
    (fun (label, pkt) ->
      let r = Dip_analysis.analyze_packet ~registry:reg pkt in
      Alcotest.(check bool)
        (Printf.sprintf "%s clean: %s" label
           (Option.value ~default:"" (Report.first_error r)))
        true (Report.clean r);
      Alcotest.(check int)
        (label ^ " depth matches engine")
        r.Report.engine_depth r.Report.depth)
    (section3 ())

let test_depth_matches_engine_info () =
  (* Rebuild each §3 packet with the §2.2 parallel bit and compare the
     analyzer's hazard-aware depth with what the engine reports. The
     analyzer's depth is a whole-program static property; the engine
     reports the critical path of the FNs that {e actually executed},
     so runtime depth can only match the static depth when every FN
     ran (no host tags, no abort) and must never exceed it. *)
  List.iter
    (fun (label, pkt) ->
      let view =
        match Packet.parse pkt with Ok v -> v | Error e -> Alcotest.fail e
      in
      let fns = Array.to_list view.Packet.fns in
      let locations =
        Bitbuf.get_field pkt
          (Field.v
             ~off_bits:(8 * view.Packet.loc_base)
             ~len_bits:(8 * view.Packet.header.Header.fn_loc_len))
      in
      let par = Packet.build ~parallel:true ~fns ~locations ~payload:"" () in
      let r = Dip_analysis.analyze_packet ~registry:reg par in
      let env = Env.create ~name:"r" () in
      let _, info = Engine.process ~registry:reg env ~now:0.0 ~ingress:0 par in
      Alcotest.(check bool)
        (label ^ " engine parallel_depth bounded by static depth")
        true
        (info.Engine.parallel_depth <= r.Report.depth);
      if info.Engine.ops_run = List.length fns then
        Alcotest.(check int)
          (label ^ " engine parallel_depth")
          info.Engine.parallel_depth r.Report.depth)
    (section3 ())

(* --- bounds --- *)

let test_bounds_region () =
  let r =
    Dip_analysis.analyze ~loc_len:8 [ Fn.v ~loc:0 ~len:65 Opkey.F_32_match ]
  in
  Alcotest.(check bool) "65 bits over a 64-bit region" true
    (has_error Report.Bounds r);
  Alcotest.(check bool) "not ok" false (Report.ok r)

let test_bounds_corrupt_packet () =
  (* Corrupt the FN length in a real packet: analyze_packet must
     report the slice, not abort like Packet.parse does. *)
  let pkt =
    Realize.ipv4 ~src:(v4 "192.0.2.1") ~dst:(v4 "10.0.0.1") ~payload:"" ()
  in
  Bitbuf.set_uint16 pkt 8 999;
  let r = Dip_analysis.analyze_packet ~registry:reg pkt in
  Alcotest.(check bool) "bounds error" true (has_error Report.Bounds r);
  Alcotest.(check int) "both FNs still analyzed" 2 r.Report.fn_count

(* --- races under the parallel flag --- *)

let test_race_write_write () =
  let fns =
    [ Fn.v ~loc:0 ~len:32 Opkey.F_cc; Fn.v ~loc:16 ~len:32 Opkey.F_tel ]
  in
  let par = Dip_analysis.analyze ~parallel:true ~loc_len:8 fns in
  Alcotest.(check bool) "race under parallel" true (has_error Report.Race par);
  (* Sequential execution order is authoritative: no race. *)
  let seq = Dip_analysis.analyze ~loc_len:8 fns in
  Alcotest.(check bool) "clean when sequential" true (Report.clean seq)

let test_race_read_only_overlap_is_fine () =
  let fns =
    [ Fn.v ~loc:0 ~len:32 Opkey.F_32_match; Fn.v ~loc:0 ~len:32 Opkey.F_fib ]
  in
  let par = Dip_analysis.analyze ~parallel:true ~loc_len:8 fns in
  Alcotest.(check bool) "two readers never race" false (has Report.Race par)

let test_parallel_scratch_hazard () =
  (* F_parm and F_mark on disjoint slices: nothing orders them under
     the engine's overlap-only leveling, so the scratch dependency is
     unsafe with the parallel flag. *)
  let fns =
    [ Fn.v ~loc:0 ~len:128 Opkey.F_parm; Fn.v ~loc:128 ~len:128 Opkey.F_mark ]
  in
  let par = Dip_analysis.analyze ~parallel:true ~loc_len:32 fns in
  Alcotest.(check bool) "scratch escapes overlap ordering" true
    (has_error Report.Race par
    && List.exists
         (fun d -> contains ~sub:"parallel flag unsafe" d.Report.message)
         par.Report.diags);
  (* In the real OPT program the slices overlap, so the engine's
     leveling orders producer before consumer: no scratch hazard
     (the overlaps themselves still make the parallel claim false,
     which is a separate write-write/read-write diagnostic). *)
  let opt = Dip_analysis.analyze ~parallel:true ~loc_len:68 opt_fns in
  Alcotest.(check bool) "OPT has no scratch hazard" false
    (List.exists
       (fun d -> contains ~sub:"parallel flag unsafe" d.Report.message)
       opt.Report.diags);
  Alcotest.(check bool) "sequential OPT is clean" true
    (Report.clean (Dip_analysis.analyze ~loc_len:68 opt_fns))

(* --- dependency order --- *)

let test_dependency_mac_before_parm () =
  let fns =
    [ Fn.v ~loc:0 ~len:416 Opkey.F_mac; Fn.v ~loc:128 ~len:128 Opkey.F_parm ]
  in
  let r = Dip_analysis.analyze ~loc_len:68 fns in
  Alcotest.(check bool) "F_MAC before F_parm" true
    (has_error Report.Dependency r);
  let good = Dip_analysis.analyze ~loc_len:68 opt_fns in
  Alcotest.(check bool) "OPT order accepted" false (has Report.Dependency good)

let test_dependency_respects_tags () =
  (* A host-tagged producer is invisible to a router-tagged consumer:
     the engine skips it on the router side (Algorithm 1 line 5). *)
  let fns =
    [
      Fn.v ~tag:Fn.Host ~loc:128 ~len:128 Opkey.F_parm;
      Fn.v ~loc:0 ~len:416 Opkey.F_mac;
    ]
  in
  let r = Dip_analysis.analyze ~loc_len:68 fns in
  Alcotest.(check bool) "producer on the wrong side" true
    (has_error Report.Dependency r)

(* --- keys and tags --- *)

let test_unknown_key_diagnostic () =
  let pkt =
    Realize.ipv4 ~src:(v4 "192.0.2.1") ~dst:(v4 "10.0.0.1") ~payload:"" ()
  in
  (* First triple's op-key word sits at byte 10 (6-byte header + loc
     + len). *)
  Bitbuf.set_uint16 pkt 10 99;
  let r = Dip_analysis.analyze_packet ~registry:reg pkt in
  Alcotest.(check bool) "unknown key reported" true (has_error Report.Key r);
  Alcotest.(check bool) "message names the key" true
    (List.exists
       (fun d -> d.Report.message = "unknown operation key 99")
       r.Report.diags)

let test_missing_mandatory_key () =
  let limited = Registry.restrict reg [ Opkey.F_parm ] in
  let r = Dip_analysis.analyze ~registry:limited ~loc_len:68 opt_fns in
  Alcotest.(check bool) "missing F_MAC is an error" true
    (has_error Report.Key r)

let test_missing_ignorable_key_warns () =
  let no_tel = Registry.restrict reg [ Opkey.F_32_match; Opkey.F_source ] in
  let fns = [ Fn.v ~loc:0 ~len:32 Opkey.F_32_match; Fn.v ~loc:64 ~len:32 Opkey.F_tel ] in
  let r = Dip_analysis.analyze ~registry:no_tel ~loc_len:12 fns in
  Alcotest.(check bool) "warning, not error" true
    (has Report.Key r && Report.ok r)

let test_host_tagged_forwarding_warns () =
  let fns = [ Fn.v ~tag:Fn.Host ~loc:0 ~len:32 Opkey.F_32_match ] in
  let r = Dip_analysis.analyze ~loc_len:4 fns in
  Alcotest.(check bool) "routers would skip it" true (has Report.Tag r);
  (* F_ver is host-tagged by design and not a forwarding FN. *)
  let ver = Dip_analysis.analyze ~loc_len:68 opt_fns in
  Alcotest.(check bool) "host-tagged F_ver is fine" false (has Report.Tag ver)

(* --- deployment (§2.4) --- *)

let test_deployment_gap () =
  let topo = Topology.linear 3 in
  let limited = Registry.restrict reg [ Opkey.F_32_match; Opkey.F_source ] in
  let registry_at n = if n = 1 then limited else reg in
  let diags =
    Dip_analysis.check_deployment ~topology:topo ~registry_at ~src:0 ~dst:2
      opt_fns
  in
  (* The middle router lacks F_parm, F_MAC and F_mark; F_ver is not
     mandatory so the (fully equipped) destination is fine. *)
  Alcotest.(check int) "three gaps on node 1" 3 (List.length diags);
  List.iter
    (fun d ->
      Alcotest.(check bool) "names node 1" true
        (contains ~sub:"node 1" d.Report.message))
    diags;
  let clean =
    Dip_analysis.check_deployment ~topology:topo ~registry_at:(fun _ -> reg)
      ~src:0 ~dst:2 opt_fns
  in
  Alcotest.(check int) "full deployment is clean" 0 (List.length clean)

let test_deployment_unreachable () =
  let topo = Topology.make ~node_count:2 [] in
  match
    Dip_analysis.check_deployment ~topology:topo ~registry_at:(fun _ -> reg)
      ~src:0 ~dst:1 opt_fns
  with
  | [ d ] ->
      Alcotest.(check bool) "deployment error" true
        (d.Report.check = Report.Deployment)
  | l -> Alcotest.failf "expected one diagnostic, got %d" (List.length l)

(* --- the engine hook --- *)

let test_engine_verify_rejects () =
  let bad =
    Packet.build
      ~fns:[ Fn.v ~loc:0 ~len:416 Opkey.F_mac ]
      ~locations:(String.make 68 '\000') ~payload:"" ()
  in
  let env = Env.create ~name:"r" () in
  let verify = Dip_analysis.verifier ~registry:reg () in
  match Engine.process ~verify ~registry:reg env ~now:0.0 ~ingress:0 bad with
  | Engine.Dropped reason, info ->
      Alcotest.(check bool) "verify: prefix" true
        (String.length reason >= 7 && String.sub reason 0 7 = "verify:");
      Alcotest.(check int) "nothing executed" 0 info.Engine.ops_run
  | _ -> Alcotest.fail "verification must drop the packet"

let test_engine_verify_passes_good () =
  let env = Env.create ~name:"r" () in
  Dip_ip.Ipv4.add_route env.Env.v4_routes
    (Ipaddr.Prefix.of_string "10.0.0.0/8") 3;
  let pkt =
    Realize.ipv4 ~src:(v4 "192.0.2.1") ~dst:(v4 "10.0.0.1") ~payload:"" ()
  in
  let verify = Dip_analysis.verifier ~registry:reg () in
  match Engine.process ~verify ~registry:reg env ~now:0.0 ~ingress:0 pkt with
  | Engine.Forwarded [ 3 ], _ -> ()
  | Engine.Dropped r, _ -> Alcotest.failf "verified packet dropped: %s" r
  | _ -> Alcotest.fail "expected forward"

let test_verifier_shape () =
  let pkt = Realize.ndn_interest ~name ~payload:"" () in
  let view = match Packet.parse pkt with Ok v -> v | Error e -> Alcotest.fail e in
  (match Dip_analysis.verifier ~registry:reg () view with
  | Ok () -> ()
  | Error e -> Alcotest.failf "good program refused: %s" e);
  let bad_view =
    let buf =
      Packet.build
        ~fns:[ Fn.v ~loc:0 ~len:416 Opkey.F_mac ]
        ~locations:(String.make 68 '\000') ~payload:"" ()
    in
    match Packet.parse buf with Ok v -> v | Error e -> Alcotest.fail e
  in
  match Dip_analysis.verifier () bad_view with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "orphan F_MAC must be refused"

(* --- the transfer table is the one row per key that races,
   dependencies, the shard key and the host-tag check read: pin which
   keys forward, touch the scratch and write their target, so a
   changed row fails here before it changes what the verifier
   certifies --- *)

let test_transfer_consistency () =
  let keys p = List.filter (fun k -> p (Registry.transfer k)) Opkey.all in
  let check what p expected =
    Alcotest.(check (list string)) what
      (List.map Opkey.name expected)
      (List.map Opkey.name (keys p))
  in
  check "forwarding (t_match)"
    (fun t -> t.Registry.t_match)
    Opkey.[ F_32_match; F_128_match; F_fib; F_pit; F_dag; F_intent ];
  check "scratch producer"
    (fun t -> t.Registry.t_produces <> [])
    Opkey.[ F_parm ];
  check "scratch consumers"
    (fun t -> t.Registry.t_consumes <> [])
    Opkey.[ F_mac; F_mark ];
  check "target writers"
    (fun t -> t.Registry.t_writes <> [])
    Opkey.[ F_mac; F_mark; F_dag; F_cc; F_tel; F_hvf; F_cust ]

(* --- sharding: no router-side FN may rewrite the flow-hash field --- *)

let test_sharding_rewrite_detected () =
  let fns =
    [ Fn.v ~loc:0 ~len:32 Opkey.F_32_match; Fn.v ~loc:0 ~len:72 Opkey.F_tel ]
  in
  let r = Dip_analysis.analyze ~registry:reg ~loc_len:9 fns in
  Alcotest.(check bool) "sharding error" true (has_error Report.Sharding r);
  Alcotest.(check bool) "names the workers" true
    (List.exists
       (fun d -> contains ~sub:"mcore workers" d.Report.message)
       r.Report.diags)

let test_sharding_step_writes_exempt () =
  (* XIA's F_DAG advances the DAG pointer inside its own target — a
     deterministic step every packet of the flow takes identically,
     so worker affinity is preserved and no diagnostic is due. *)
  let xia =
    Realize.xia
      ~dag:(Dip_xia.Dag.direct (Dip_xia.Xid.of_name Dip_xia.Xid.SID "s"))
      ~payload:"x" ()
  in
  let r = Dip_analysis.analyze_packet ~registry:reg xia in
  Alcotest.(check bool) "xia has no sharding diag" false (has Report.Sharding r)

let test_sharding_host_writer_exempt () =
  (* A host-tagged writer never executes on the sharded routers. *)
  let fns =
    [
      Fn.v ~loc:0 ~len:32 Opkey.F_32_match;
      Fn.v ~tag:Fn.Host ~loc:0 ~len:72 Opkey.F_tel;
    ]
  in
  let r = Dip_analysis.analyze ~registry:reg ~loc_len:9 fns in
  Alcotest.(check bool) "no sharding diag" false (has Report.Sharding r)

(* --- dataflow hazards beyond pairwise overlap --- *)

let test_latent_hazard_sequential_warns () =
  (* Without the parallel flag the program is correct today, but the
     scratch edge F_parm→F_mark escapes the engine's overlap leveling
     (disjoint targets, both level 1): flipping §2.2 breaks it. *)
  let fns =
    [ Fn.v ~loc:128 ~len:128 Opkey.F_parm; Fn.v ~loc:288 ~len:128 Opkey.F_mark ]
  in
  let r = Dip_analysis.analyze ~registry:reg ~parallel:false ~loc_len:52 fns in
  Alcotest.(check bool) "no errors" true (Report.ok r);
  Alcotest.(check bool) "latent-hazard warning" true
    (List.exists
       (fun d ->
         d.Report.severity = Report.Warning
         && contains ~sub:"latent parallel hazard" d.Report.message)
       r.Report.diags)

let test_hazard_chain_depth_two () =
  (* F_parm —scratch→ F_mark —region read→ F_pass: the second edge is
     one step removed from any scratch pair, which the v1 pairwise
     checks could not see. All three targets are disjoint, so the
     engine runs everything at level 1 under the parallel flag. *)
  let fns =
    [
      Fn.v ~loc:416 ~len:128 Opkey.F_parm;
      Fn.v ~loc:0 ~len:128 Opkey.F_mark;
      Fn.v ~loc:544 ~len:32 Opkey.F_pass;
    ]
  in
  let r = Dip_analysis.analyze ~registry:reg ~parallel:true ~loc_len:72 fns in
  let unsafe fn_index =
    List.exists
      (fun d ->
        d.Report.severity = Report.Error
        && d.Report.fn_index = Some fn_index
        && contains ~sub:"parallel flag unsafe" d.Report.message)
      r.Report.diags
  in
  Alcotest.(check bool) "scratch edge flagged (F_mark)" true (unsafe 1);
  Alcotest.(check bool) "depth-2 read edge flagged (F_pass)" true (unsafe 2)

(* --- topology-wide reachability --- *)

module Reach = Dip_analysis.Reach

let reach_node ?registry routes =
  {
    Reach.n_registry = Some (Option.value registry ~default:reg);
    n_routes = routes;
    n_local = [];
  }

let ipv4_view () =
  let pkt =
    Realize.ipv4 ~src:(v4 "192.0.2.1") ~dst:(v4 "10.0.0.1") ~payload:"x" ()
  in
  match Packet.parse pkt with Ok v -> v | Error e -> Alcotest.fail e

let reach_match_value view =
  match Reach.match_value view with
  | Some v -> v
  | None -> Alcotest.fail "no match value"

let test_reach_clean_chain () =
  let view = ipv4_view () in
  let v = reach_match_value view in
  let config =
    {
      Reach.c_topology = Topology.linear 4;
      c_node = (fun i -> reach_node (if i < 3 then [ (v, i + 1) ] else []));
      c_src = 0;
      c_dst = 3;
    }
  in
  Alcotest.(check int) "no diagnostics" 0
    (List.length (Reach.check_view config view))

let test_reach_loop () =
  let view = ipv4_view () in
  let v = reach_match_value view in
  let config =
    {
      Reach.c_topology = Topology.linear 4;
      c_node =
        (fun i ->
          reach_node
            (match i with
            | 0 -> [ (v, 1) ]
            | 1 -> [ (v, 2) ]
            | 2 -> [ (v, 0) ]
            | _ -> []));
      c_src = 0;
      c_dst = 3;
    }
  in
  let diags = Reach.check_view config view in
  Alcotest.(check bool) "loop reported" true
    (List.exists
       (fun d ->
         d.Report.check = Report.Loop && d.Report.severity = Report.Error
         && contains ~sub:"0→1→2→0" d.Report.message)
       diags)

let test_reach_blackhole () =
  let view = ipv4_view () in
  let v = reach_match_value view in
  let config =
    {
      Reach.c_topology = Topology.linear 3;
      c_node = (fun i -> reach_node (if i = 0 then [ (v, 1) ] else []));
      c_src = 0;
      c_dst = 2;
    }
  in
  let diags = Reach.check_view config view in
  Alcotest.(check bool) "blackhole at node 1" true
    (List.exists
       (fun d ->
         d.Report.check = Report.Blackhole
         && contains ~sub:"node 1 has no route" d.Report.message)
       diags)

let test_reach_post_rewrite_gap () =
  (* Node 1 fans out to node 2 only for packets whose match value an
     upstream F_tel rewrote; node 2 lacks mandatory F_hvf. The
     shortest path 0→1→3 is clean, so only the symbolic pass that
     follows the rewritten (unknown) value finds the gap. *)
  let pkt =
    Packet.build
      ~fns:
        [
          Fn.v ~loc:0 ~len:32 Opkey.F_32_match;
          Fn.v ~loc:0 ~len:72 Opkey.F_tel;
          Fn.v ~loc:72 ~len:32 Opkey.F_hvf;
        ]
      ~locations:(String.make 13 '\000') ~payload:"" ()
  in
  let view = match Packet.parse pkt with Ok v -> v | Error e -> Alcotest.fail e in
  let v = reach_match_value view in
  let gapped =
    Registry.restrict reg
      (List.filter (fun k -> k <> Opkey.F_hvf) (Registry.supported reg))
  in
  let config =
    {
      Reach.c_topology = Topology.linear 4;
      c_node =
        (fun i ->
          match i with
          | 0 -> reach_node [ (v, 1) ]
          | 1 -> reach_node [ (v, 3); ("\xffoff-path", 2) ]
          | 2 -> reach_node ~registry:gapped [ (v, 3) ]
          | _ -> reach_node []);
      c_src = 0;
      c_dst = 3;
    }
  in
  let diags = Reach.check_view config view in
  let gap =
    List.find_opt
      (fun d ->
        d.Report.check = Report.Deployment && d.Report.severity = Report.Error)
      diags
  in
  match gap with
  | None -> Alcotest.fail "deployment gap not found"
  | Some d ->
      Alcotest.(check bool) "names node 2" true
        (contains ~sub:"node 2" d.Report.message);
      Alcotest.(check bool) "explains the rewrite" true
        (contains ~sub:"rewrote the match field" d.Report.message)

(* --- engine verdict memoization re-keys on the hook identity --- *)

let test_verify_memo_rekeys_on_hook () =
  let env = Env.create ~name:"r" () in
  Dip_ip.Ipv4.add_route env.Env.v4_routes
    (Ipaddr.Prefix.of_string "10.0.0.0/8") 3;
  let pkt () =
    Realize.ipv4 ~src:(v4 "192.0.2.1") ~dst:(v4 "10.0.0.1") ~payload:"" ()
  in
  let hook_a _ = Error "hook-a says no" in
  let hook_b _ = Ok () in
  let run hook =
    fst (Engine.process ~verify:hook ~registry:reg env ~now:0.0 ~ingress:0 (pkt ()))
  in
  (match run hook_a with
  | Engine.Dropped r ->
      Alcotest.(check bool) "a's reason" true (contains ~sub:"hook-a" r)
  | _ -> Alcotest.fail "hook a must drop");
  (* Same cached program, different hook: the memoized verdict must
     not be served — hook b accepts and the packet forwards. *)
  (match run hook_b with
  | Engine.Forwarded [ 3 ] -> ()
  | Engine.Dropped r -> Alcotest.failf "stale verdict served: %s" r
  | _ -> Alcotest.fail "hook b must forward");
  match run hook_a with
  | Engine.Dropped _ -> ()
  | _ -> Alcotest.fail "switching back re-verifies"

(* --- qcheck: soundness + cache-stability of the verifying engine --- *)

let soundness_candidates =
  lazy
    (Array.of_list
       (List.map snd (section3 ())
       @ [
           (* programs the analyzer must reject *)
           Packet.build
             ~fns:[ Fn.v ~loc:0 ~len:416 Opkey.F_mac ]
             ~locations:(String.make 52 '\000') ~payload:"" ();
           Packet.build ~parallel:true
             ~fns:
               [
                 Fn.v ~loc:0 ~len:32 Opkey.F_cc; Fn.v ~loc:0 ~len:72 Opkey.F_tel;
               ]
             ~locations:(String.make 9 '\000') ~payload:"" ();
           Packet.build
             ~fns:
               [
                 Fn.v ~loc:0 ~len:32 Opkey.F_32_match;
                 Fn.v ~loc:0 ~len:72 Opkey.F_tel;
               ]
             ~locations:(String.make 9 '\000') ~payload:"" ();
         ]))

let verdict_sig = function
  | Engine.Forwarded ps ->
      "fwd:" ^ String.concat "," (List.map string_of_int ps)
  | Engine.Delivered -> "delivered"
  | Engine.Responded _ -> "responded"
  | Engine.Quiet -> "quiet"
  | Engine.Dropped r -> "drop:" ^ r
  | Engine.Unsupported k -> "unsupported:" ^ Opkey.name k

let prop_verify_sound_and_cache_stable =
  QCheck.Test.make ~count:60
    ~name:"analyzer-clean programs execute; verdicts cache-stable"
    QCheck.(int_bound (Array.length (Lazy.force soundness_candidates) - 1))
    (fun i ->
      let pkt = (Lazy.force soundness_candidates).(i) in
      let report = Dip_analysis.analyze_packet ~registry:reg pkt in
      let mk cap =
        let env = Env.create ~prog_cache_capacity:cap ~name:"q" () in
        Dip_ip.Ipv4.add_route env.Env.v4_routes
          (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
        Dip_ip.Ipv6.add_route env.Env.v6_routes
          (Ipaddr.Prefix.of_string "::/0") 1;
        Dip_tables.Name_fib.insert env.Env.fib name 1;
        env
      in
      let verify = Dip_analysis.verifier ~registry:reg () in
      let run env =
        verdict_sig
          (fst
             (Engine.process ~verify ~registry:reg env ~now:0.0 ~ingress:0
                (Bitbuf.copy pkt)))
      in
      (* Per-flow engine state may legitimately change verdicts
         between runs (PIT aggregation turns the second interest
         Quiet); the invariant under test is the *verifier's* verdict:
         identical across progcache miss, hit and cache-disabled. *)
      let verify_outcome s =
        if String.length s >= 12 && String.sub s 0 12 = "drop:verify:" then s
        else "pass"
      in
      let cached = mk 64 in
      let cold = verify_outcome (run cached) in
      let warm = verify_outcome (run cached) in
      let uncached = verify_outcome (run (mk 0)) in
      let stable = cold = warm && cold = uncached in
      let sound = (not (Report.ok report)) || cold = "pass" in
      stable && sound)

(* --- differential: the verifier against the full report --- *)

(* The Dependency check as it was when it ran Absint.exec over the
   abstract store for both sides: the oracle the store-free pass must
   match, diagnostic for diagnostic and in the same order. *)
let reference_dependency_diags ~region_bits indexed =
  let run side =
    (Dip_analysis.Absint.exec ~side ~region_bits indexed)
      .Dip_analysis.Absint.steps
  in
  List.concat_map
    (fun (s : Dip_analysis.Absint.step) ->
      List.map
        (fun c ->
          Report.error ~fn_index:s.Dip_analysis.Absint.st_index
            ~field:s.Dip_analysis.Absint.st_fn.Fn.field Report.Dependency
            (Printf.sprintf
               "%s consumes scratch.%s but no preceding %s-tagged producer \
                provides it"
               (Opkey.name s.Dip_analysis.Absint.st_fn.Fn.key)
               c
               (match s.Dip_analysis.Absint.st_fn.Fn.tag with
               | Fn.Router -> "router"
               | Fn.Host -> "host")))
        s.Dip_analysis.Absint.st_missing_scratch)
    (run Dip_analysis.Absint.Router @ run Dip_analysis.Absint.Host)

(* The checked-in defect corpus, found from `dune runtest` (run in
   test/) or from the repository root. *)
let corpus () =
  let dir =
    match
      List.find_opt Sys.file_exists [ "corpus"; Filename.concat "test" "corpus" ]
    with
    | Some d -> d
    | None -> Alcotest.fail "test/corpus not found"
  in
  List.concat_map
    (fun sub ->
      let d = Filename.concat dir sub in
      Sys.readdir d |> Array.to_list |> List.sort compare
      |> List.filter (String.ends_with ~suffix:".hex")
      |> List.map (fun f ->
             let ic = open_in (Filename.concat d f) in
             let hex = String.trim (In_channel.input_all ic) in
             close_in ic;
             (sub ^ "/" ^ f, Dip_stdext.Hex.decode hex)))
    [ "good"; "bad" ]

(* The packet with its §2.2 parallel bit (packet-parameter bit 0)
   cleared and set. *)
let both_flags (label, raw) =
  let with_bit bit =
    let b = Bytes.of_string raw in
    if Bytes.length b > 4 then
      Bytes.set b 4
        (Char.chr ((Char.code (Bytes.get b 4) land lnot 1) lor bit));
    Bytes.to_string b
  in
  [ (label ^ " sequential", with_bit 0); (label ^ " parallel", with_bit 1) ]

let differential_programs () =
  let g = Dip_stdext.Prng.create 20L in
  let random =
    List.init 1500 (fun i ->
        (Printf.sprintf "random %d" i, Programs.random_program g))
  in
  let realized =
    List.mapi (fun i raw -> (Printf.sprintf "realized %d" i, raw))
      (Programs.realized ())
  in
  corpus () @ List.concat_map both_flags (corpus () @ realized @ random)

let differential_registries =
  [
    ("full registry", Some reg);
    (* No F_MAC (mandatory: an Error) and no F_tel, F_ver or F_dag
       (ignorable: Warnings). *)
    ( "restricted registry",
      Some
        (Registry.restrict reg
           [
             Opkey.F_32_match; Opkey.F_128_match; Opkey.F_source; Opkey.F_fib;
             Opkey.F_pit; Opkey.F_parm; Opkey.F_mark; Opkey.F_cc;
           ]) );
    ("no registry", None);
  ]

let views () =
  List.filter_map
    (fun (label, raw) ->
      match Packet.parse (Bitbuf.of_string raw) with
      | Ok v -> Some (label, raw, v)
      | Error _ -> None)
    (differential_programs ())

let test_verifier_equals_analyzer () =
  let views = views () in
  (* The first Error's check class, and whether Warnings came along,
     tallied so the comparison cannot pass by never seeing a verdict
     that a skipped pass decides. *)
  let first_errors = Hashtbl.create 8 and warned_ok = ref 0 in
  List.iter
    (fun (rname, registry) ->
      let verify = Dip_analysis.verifier ?registry () in
      List.iter
        (fun (label, raw, view) ->
          let report = Dip_analysis.analyze_view ?registry view in
          let want =
            match Report.first_error report with
            | None -> Ok ()
            | Some e -> Error e
          in
          let got = verify view in
          let show = function Ok () -> "Ok" | Error e -> "Error " ^ e in
          if got <> want then
            Alcotest.failf "%s, %s (%s): verifier %s, analyzer %s" label rname
              (Dip_stdext.Hex.encode raw) (show got) (show want);
          match
            List.find_opt (fun d -> d.Report.severity = Report.Error)
              report.Report.diags
          with
          | Some d -> Hashtbl.replace first_errors d.Report.check ()
          | None -> if Report.warnings report > 0 then incr warned_ok)
        views)
    differential_registries;
  List.iter
    (fun c ->
      if not (Hashtbl.mem first_errors c) then
        Alcotest.failf "no program's first Error was a %s error"
          (Report.check_name c))
    (* Packet.parse already refuses a target outside the region, so
       no view reaches the verifier with a Bounds error. *)
    [ Report.Race; Report.Dependency; Report.Key; Report.Sharding ];
  Alcotest.(check bool) "some accepted programs carried Warnings" true
    (!warned_ok > 0)

let test_parallel_only_corpus () =
  (* The two corpus programs that are errors only under the parallel
     flag must reach the verifier (parse) and be refused by it. *)
  let corpus = corpus () in
  List.iter
    (fun f ->
      let raw = List.assoc ("bad/" ^ f) corpus in
      match Packet.parse (Bitbuf.of_string raw) with
      | Error e -> Alcotest.failf "%s does not parse: %s" f e
      | Ok view -> (
          match Dip_analysis.verifier ~registry:reg () view with
          | Error e ->
              Alcotest.(check bool) (f ^ " refused as a race") true
                (contains ~sub:"race" e)
          | Ok () -> Alcotest.failf "%s accepted" f))
    [ "race--parallel-overlap.hex"; "race--scratch-chain.hex" ]

let test_dependency_oracle () =
  let checked = ref 0 and found = ref 0 in
  List.iter
    (fun (label, raw) ->
      match Packet.parse (Bitbuf.of_string raw) with
      | Error _ -> ()
      | Ok view ->
          let indexed =
            List.mapi (fun i fn -> (i, fn)) (Array.to_list view.Packet.fns)
          in
          let want =
            reference_dependency_diags
              ~region_bits:(8 * view.Packet.header.Header.fn_loc_len)
              indexed
          in
          let got =
            List.filter
              (fun d -> d.Report.check = Report.Dependency)
              (Dip_analysis.analyze_view ~registry:reg view).Report.diags
          in
          let show ds =
            String.concat "; " (List.map (Format.asprintf "%a" Report.pp_diag) ds)
          in
          if got <> want then
            Alcotest.failf "%s (%s): dependency diags\n  got:  %s\n  want: %s"
              label (Dip_stdext.Hex.encode raw) (show got) (show want);
          incr checked;
          if want <> [] then incr found)
    (differential_programs ());
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d programs have dependency errors" !found !checked)
    true
    (!found > 0 && !found < !checked)

(* --- odds and ends --- *)

let test_depth_values () =
  Alcotest.(check int) "empty program" 0 (Dip_analysis.depth []);
  Alcotest.(check int) "OPT depth 4" 4 (Dip_analysis.depth opt_fns);
  Alcotest.(check int) "independent FNs" 1
    (Dip_analysis.depth
       [ Fn.v ~loc:0 ~len:32 Opkey.F_32_match; Fn.v ~loc:32 ~len:32 Opkey.F_source ])

let test_garbage_header () =
  let r = Dip_analysis.analyze_packet ~registry:reg (Bitbuf.of_string "ab") in
  Alcotest.(check bool) "parse error" true (has_error Report.Parse r)

let () =
  Alcotest.run "dip-analysis"
    [
      ( "section3",
        [
          Alcotest.test_case "all realizations clean" `Quick test_section3_clean;
          Alcotest.test_case "depth matches engine info" `Quick
            test_depth_matches_engine_info;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "region overflow" `Quick test_bounds_region;
          Alcotest.test_case "corrupt packet" `Quick test_bounds_corrupt_packet;
        ] );
      ( "races",
        [
          Alcotest.test_case "write-write" `Quick test_race_write_write;
          Alcotest.test_case "readers don't race" `Quick
            test_race_read_only_overlap_is_fine;
          Alcotest.test_case "scratch hazard" `Quick test_parallel_scratch_hazard;
        ] );
      ( "dependency",
        [
          Alcotest.test_case "MAC before parm" `Quick
            test_dependency_mac_before_parm;
          Alcotest.test_case "tag sides" `Quick test_dependency_respects_tags;
        ] );
      ( "keys",
        [
          Alcotest.test_case "unknown key" `Quick test_unknown_key_diagnostic;
          Alcotest.test_case "missing mandatory" `Quick test_missing_mandatory_key;
          Alcotest.test_case "missing ignorable" `Quick
            test_missing_ignorable_key_warns;
          Alcotest.test_case "host-tagged forwarding" `Quick
            test_host_tagged_forwarding_warns;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "gap on path" `Quick test_deployment_gap;
          Alcotest.test_case "unreachable" `Quick test_deployment_unreachable;
        ] );
      ( "engine-hook",
        [
          Alcotest.test_case "rejects bad" `Quick test_engine_verify_rejects;
          Alcotest.test_case "passes good" `Quick test_engine_verify_passes_good;
          Alcotest.test_case "verifier shape" `Quick test_verifier_shape;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "table agrees with access modes" `Quick
            test_transfer_consistency;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "rewrite detected" `Quick
            test_sharding_rewrite_detected;
          Alcotest.test_case "step writes exempt (xia)" `Quick
            test_sharding_step_writes_exempt;
          Alcotest.test_case "host writer exempt" `Quick
            test_sharding_host_writer_exempt;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "latent hazard warns when sequential" `Quick
            test_latent_hazard_sequential_warns;
          Alcotest.test_case "hazard chain at depth 2" `Quick
            test_hazard_chain_depth_two;
        ] );
      ( "reach",
        [
          Alcotest.test_case "clean chain" `Quick test_reach_clean_chain;
          Alcotest.test_case "forwarding loop" `Quick test_reach_loop;
          Alcotest.test_case "blackhole" `Quick test_reach_blackhole;
          Alcotest.test_case "post-rewrite deployment gap" `Quick
            test_reach_post_rewrite_gap;
        ] );
      ( "verify-cache",
        [
          Alcotest.test_case "memo re-keys on hook" `Quick
            test_verify_memo_rekeys_on_hook;
          QCheck_alcotest.to_alcotest prop_verify_sound_and_cache_stable;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "same verdict and reason" `Quick
            test_verifier_equals_analyzer;
          Alcotest.test_case "parallel-only corpus errors" `Quick
            test_parallel_only_corpus;
          Alcotest.test_case "dependency pass = abstract execution" `Quick
            test_dependency_oracle;
        ] );
      ( "misc",
        [
          Alcotest.test_case "depth values" `Quick test_depth_values;
          Alcotest.test_case "garbage header" `Quick test_garbage_header;
        ] );
    ]

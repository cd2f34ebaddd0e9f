(* Tests for the DIP core: FN triples, the header of Figure 1, packet
   construction, Algorithm 1's engine, the five §3 realizations, the
   §2.4 design concerns (guard, heterogeneous registries, F_pass,
   compatibility) and the §2.3 bootstrap. *)

open Dip_core
module Bitbuf = Dip_bitbuf.Bitbuf
module Field = Dip_bitbuf.Field
module Ipaddr = Dip_tables.Ipaddr
module Name = Dip_tables.Name

let v4 = Ipaddr.V4.of_string
let v6 = Ipaddr.V6.of_string
let reg = Ops.default_registry ()

(* --- Opkey --- *)

let test_opkey_table1 () =
  (* Table 1's numbering must hold exactly. *)
  let expect =
    [
      (1, "F_32_match", "32-bit address match");
      (2, "F_128_match", "128-bit address match");
      (3, "F_source", "source address");
      (4, "F_FIB", "forwarding information base match");
      (5, "F_PIT", "pending interest table match");
      (6, "F_parm", "load parameters");
      (7, "F_MAC", "calculate MAC");
      (8, "F_mark", "mark update");
      (9, "F_ver", "destination verification");
      (10, "F_DAG", "parse the directed acyclic graph");
      (11, "F_intent", "handle intent");
    ]
  in
  List.iter
    (fun (key, name, desc) ->
      match Opkey.of_int key with
      | None -> Alcotest.failf "key %d missing" key
      | Some k ->
          Alcotest.(check string) "notation" name (Opkey.name k);
          Alcotest.(check string) "description" desc (Opkey.description k);
          Alcotest.(check int) "roundtrip" key (Opkey.to_int k))
    expect;
  Alcotest.(check (option reject)) "key 0 unknown" None (Opkey.of_int 0);
  (* Keys 13-16 are this repo's documented extensions (F_cc, F_tel,
     F_hvf, F_cust). *)
  (match Opkey.of_int 16 with
  | Some k -> Alcotest.(check string) "key 16 is F_cust" "F_cust" (Opkey.name k)
  | None -> Alcotest.fail "key 16 missing");
  Alcotest.(check (option reject)) "key 17 unknown" None (Opkey.of_int 17)

(* --- Fn --- *)

let test_fn_wire_roundtrip () =
  let fn = Fn.v ~loc:288 ~len:128 Opkey.F_mark in
  let buf = Bitbuf.create 6 in
  Fn.encode fn buf ~pos:0;
  match Fn.decode buf ~pos:0 with
  | Ok fn' -> Alcotest.(check bool) "equal" true (Fn.equal fn fn')
  | Error e -> Alcotest.fail e

let test_fn_size_is_6_bytes () =
  (* 6-byte triples are what make Table 2 come out exactly. *)
  Alcotest.(check int) "triple size" 6 Fn.size

let test_fn_tag_bit () =
  let fn = Fn.v ~tag:Fn.Host ~loc:0 ~len:544 Opkey.F_ver in
  let buf = Bitbuf.create 6 in
  Fn.encode fn buf ~pos:0;
  (* Highest bit of the op-key word is the tag (§2.2). *)
  Alcotest.(check bool) "tag bit set" true (Bitbuf.get_uint16 buf 4 land 0x8000 <> 0);
  match Fn.decode buf ~pos:0 with
  | Ok fn' -> Alcotest.(check bool) "host tag survives" true (fn'.Fn.tag = Fn.Host)
  | Error e -> Alcotest.fail e

let test_fn_decode_rejects () =
  let buf = Bitbuf.create 6 in
  Bitbuf.set_uint16 buf 2 8;
  Bitbuf.set_uint16 buf 4 99 (* unknown key *);
  (match Fn.decode buf ~pos:0 with
  | Error e -> Alcotest.(check string) "unknown key" "unknown operation key 99" e
  | Ok _ -> Alcotest.fail "accepted unknown key");
  match Fn.decode (Bitbuf.create 4) ~pos:0 with
  | Error e -> Alcotest.(check string) "truncated" "truncated FN triple" e
  | Ok _ -> Alcotest.fail "accepted truncated triple"

(* --- Header --- *)

let test_header_roundtrip () =
  let h =
    { Header.next_header = 17; fn_num = 5; hop_limit = 64; parallel = true;
      fn_loc_len = 72 }
  in
  let buf = Bitbuf.create (Header.header_length h) in
  Header.encode h buf;
  match Header.decode buf with
  | Ok h' -> Alcotest.(check bool) "roundtrip" true (h = h')
  | Error e -> Alcotest.fail e

let test_header_basic_size () =
  (* Table 2: "The basic DIP header occupies 6 bytes." *)
  Alcotest.(check int) "basic header" 6 Header.basic_size

let test_header_length_derivation () =
  (* §2.2: header length = basic + FN_Num * 6 + FN_LocLen. *)
  let h =
    { Header.next_header = 0; fn_num = 4; hop_limit = 1; parallel = false;
      fn_loc_len = 68 }
  in
  Alcotest.(check int) "OPT header length" 98 (Header.header_length h)

let test_header_loc_len_limit () =
  Alcotest.(check bool) "10-bit limit" true
    (try
       Header.encode
         { Header.next_header = 0; fn_num = 0; hop_limit = 1; parallel = false;
           fn_loc_len = 1024 }
         (Bitbuf.create 8);
       false
     with Invalid_argument _ -> true)

let test_header_hop_limit () =
  let h =
    { Header.next_header = 0; fn_num = 0; hop_limit = 2; parallel = false;
      fn_loc_len = 0 }
  in
  let buf = Bitbuf.create 6 in
  Header.encode h buf;
  Alcotest.(check bool) "first decrement" true (Header.decrement_hop_limit buf);
  Alcotest.(check bool) "second refused" false (Header.decrement_hop_limit buf)

(* --- Packet --- *)

let test_packet_build_parse () =
  let fns = [ Fn.v ~loc:0 ~len:32 Opkey.F_fib ] in
  let buf = Packet.build ~fns ~locations:"abcd" ~payload:"payload" () in
  match Packet.parse buf with
  | Ok view ->
      Alcotest.(check int) "fn count" 1 (Array.length view.Packet.fns);
      Alcotest.(check int) "loc base" 12 view.Packet.loc_base;
      Alcotest.(check string) "target" "abcd"
        (Packet.get_target view view.Packet.fns.(0));
      Alcotest.(check string) "payload" "payload" (Packet.payload view)
  | Error e -> Alcotest.fail e

let test_packet_rejects_fn_out_of_bounds () =
  Alcotest.(check bool) "FN beyond locations" true
    (try
       ignore
         (Packet.build
            ~fns:[ Fn.v ~loc:0 ~len:64 Opkey.F_fib ]
            ~locations:"abcd" ~payload:"" ());
       false
     with Invalid_argument _ -> true)

let test_packet_parse_rejects_corrupt_fn () =
  let buf = Packet.build ~fns:[ Fn.v ~loc:0 ~len:32 Opkey.F_fib ] ~locations:"abcd" ~payload:"" () in
  (* Corrupt the FN length so the target exceeds the region. *)
  Bitbuf.set_uint16 buf 8 999;
  match Packet.parse buf with
  | Error e ->
      Alcotest.(check string) "bounds check" "FN 1: target exceeds locations region" e
  | Ok _ -> Alcotest.fail "accepted out-of-bounds FN"

let test_packet_set_target () =
  let buf = Packet.build ~fns:[ Fn.v ~loc:8 ~len:16 Opkey.F_source ] ~locations:"abcd" ~payload:"" () in
  match Packet.parse buf with
  | Ok view ->
      Bitbuf.set_field view.Packet.buf
        (Packet.locations_field view view.Packet.fns.(0)) "XY";
      Alcotest.(check string) "updated" "XY"
        (Packet.get_target view view.Packet.fns.(0))
  | Error e -> Alcotest.fail e

(* --- Table 2: exact reproduction --- *)

let test_table2_exact () =
  let expect =
    [
      (Realize.P_ipv6_native, 40);
      (Realize.P_ipv4_native, 20);
      (Realize.P_dip128, 50);
      (Realize.P_dip32, 26);
      (Realize.P_ndn, 16);
      (Realize.P_opt, 98);
      (Realize.P_ndn_opt, 108);
    ]
  in
  List.iter
    (fun (p, bytes) ->
      Alcotest.(check int) (Realize.protocol_name p) bytes
        (Realize.header_overhead p))
    expect

(* --- Engine: DIP IP forwarding --- *)

let env_with_v4_routes () =
  let env = Env.create ~name:"r" () in
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 3;
  env

let test_engine_dip32_forward () =
  let env = env_with_v4_routes () in
  let pkt = Realize.ipv4 ~src:(v4 "192.0.2.1") ~dst:(v4 "10.1.2.3") ~payload:"x" () in
  match Engine.process ~registry:reg env ~now:0.0 ~ingress:0 pkt with
  | Engine.Forwarded [ 3 ], info ->
      Alcotest.(check int) "two router FNs ran" 2 info.Engine.ops_run
  | v, _ -> Alcotest.failf "unexpected verdict %s"
              (match v with Engine.Dropped r -> r | _ -> "?")

let test_engine_dip32_no_route () =
  let env = env_with_v4_routes () in
  let pkt = Realize.ipv4 ~src:(v4 "192.0.2.1") ~dst:(v4 "203.0.113.9") ~payload:"" () in
  match Engine.process ~registry:reg env ~now:0.0 ~ingress:0 pkt with
  | Engine.Dropped "no-route", _ -> ()
  | _ -> Alcotest.fail "expected no-route drop"

let test_engine_dip32_local_delivery () =
  let env = env_with_v4_routes () in
  env.Env.local_v4 <- Some (v4 "10.1.2.3");
  let pkt = Realize.ipv4 ~src:(v4 "192.0.2.1") ~dst:(v4 "10.1.2.3") ~payload:"" () in
  match Engine.process ~registry:reg env ~now:0.0 ~ingress:0 pkt with
  | Engine.Delivered, _ -> ()
  | _ -> Alcotest.fail "expected local delivery"

let test_engine_dip128_forward () =
  let env = Env.create ~name:"r" () in
  Dip_ip.Ipv6.add_route env.Env.v6_routes (Ipaddr.Prefix.of_string "2001:db8::/32") 5;
  let pkt =
    Realize.ipv6 ~src:(v6 "2001:db8::1") ~dst:(v6 "2001:db8::99") ~payload:"" ()
  in
  match Engine.process ~registry:reg env ~now:0.0 ~ingress:0 pkt with
  | Engine.Forwarded [ 5 ], _ -> ()
  | _ -> Alcotest.fail "expected v6 forward"

let test_engine_hop_limit_decrement () =
  let env = env_with_v4_routes () in
  let pkt =
    Realize.ipv4 ~hop_limit:2 ~src:(v4 "192.0.2.1") ~dst:(v4 "10.0.0.1") ~payload:"" ()
  in
  (match Engine.process ~registry:reg env ~now:0.0 ~ingress:0 pkt with
  | Engine.Forwarded _, _ -> ()
  | _ -> Alcotest.fail "first hop forwards");
  match Engine.process ~registry:reg env ~now:0.0 ~ingress:0 pkt with
  | Engine.Dropped "hop-limit-expired", _ -> ()
  | _ -> Alcotest.fail "second hop must expire"

let test_engine_first_decision_wins () =
  (* Two route-proposing FNs over different address fields: Algorithm 1
     runs both, the first proposal sticks. *)
  let env = Env.create ~name:"r" () in
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "20.0.0.0/8") 2;
  let locations =
    Ipaddr.V4.to_wire (v4 "10.1.1.1") ^ Ipaddr.V4.to_wire (v4 "20.1.1.1")
  in
  let pkt =
    Packet.build
      ~fns:
        [
          Fn.v ~loc:0 ~len:32 Opkey.F_32_match;
          Fn.v ~loc:32 ~len:32 Opkey.F_32_match;
        ]
      ~locations ~payload:"" ()
  in
  match Engine.process ~registry:reg env ~now:0.0 ~ingress:0 pkt with
  | Engine.Forwarded [ 1 ], info ->
      Alcotest.(check int) "both FNs still ran" 2 info.Engine.ops_run
  | _ -> Alcotest.fail "first route proposal must win"

let test_engine_local_beats_later_route () =
  let env = Env.create ~name:"r" () in
  env.Env.local_v4 <- Some (v4 "10.1.1.1");
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "20.0.0.0/8") 2;
  let locations =
    Ipaddr.V4.to_wire (v4 "10.1.1.1") ^ Ipaddr.V4.to_wire (v4 "20.1.1.1")
  in
  let pkt =
    Packet.build
      ~fns:
        [
          Fn.v ~loc:0 ~len:32 Opkey.F_32_match;
          Fn.v ~loc:32 ~len:32 Opkey.F_32_match;
        ]
      ~locations ~payload:"" ()
  in
  match Engine.process ~registry:reg env ~now:0.0 ~ingress:0 pkt with
  | Engine.Delivered, _ -> ()
  | _ -> Alcotest.fail "first (local-delivery) decision must win"

let prop_opt_random_hops_verify =
  (* The OPT chain must verify for any path length and payload. *)
  QCheck.Test.make ~name:"opt over dip: random hop counts verify" ~count:60
    QCheck.(pair (int_range 1 6) small_string)
    (fun (hops, payload) ->
      let g = Dip_stdext.Prng.create (Int64.of_int (hops * 1009)) in
      let secrets = List.init hops (fun _ -> Dip_opt.Drkey.secret_gen g) in
      let dst_secret = Dip_opt.Drkey.secret_gen g in
      let session_id = Int64.of_int (hops * 31337) in
      let session_keys = Dip_opt.Drkey.session_keys secrets ~session_id in
      let dest_key = Dip_opt.Drkey.derive dst_secret ~session_id in
      let pkt =
        Realize.opt ~hops ~session_id ~timestamp:1l ~dest_key ~payload ()
      in
      List.iteri
        (fun i secret ->
          let env = Env.create ~name:"r" () in
          Env.set_opt_identity env ~secret ~hop:(i + 1);
          ignore (Engine.process ~registry:reg env ~now:0.0 ~ingress:0 pkt))
        secrets;
      let host = Env.create ~name:"h" () in
      Env.register_opt_session host ~session_id ~session_keys ~dest_key;
      match Engine.host_process ~registry:reg host ~now:0.0 ~ingress:0 pkt with
      | Engine.Delivered, _ -> true
      | _ -> false)

(* --- Engine: DIP NDN --- *)

let ndn_env ?cache_capacity () =
  let env = Env.create ?cache_capacity ~name:"r" () in
  Dip_tables.Name_fib.insert env.Env.fib (Name.of_string "/video/intro.mp4") 2;
  env

let test_engine_ndn_interest_then_data () =
  let env = ndn_env () in
  let name = Name.of_string "/video/intro.mp4" in
  let interest = Realize.ndn_interest ~name ~payload:"" () in
  (match Engine.process ~registry:reg env ~now:0.0 ~ingress:7 interest with
  | Engine.Forwarded [ 2 ], _ -> ()
  | Engine.Dropped r, _ -> Alcotest.failf "interest dropped: %s" r
  | _ -> Alcotest.fail "interest must forward via FIB");
  (* Aggregation: same name from another port is Quiet. *)
  (match Engine.process ~registry:reg env ~now:0.1 ~ingress:8 interest with
  | Engine.Quiet, _ -> ()
  | _ -> Alcotest.fail "second interest must aggregate");
  (* Data follows the PIT back to both ports. *)
  let data = Realize.ndn_data ~name ~content:"body" () in
  (match Engine.process ~registry:reg env ~now:0.2 ~ingress:2 data with
  | Engine.Forwarded ports, _ ->
      Alcotest.(check (list int)) "both requesters" [ 7; 8 ]
        (List.sort compare ports)
  | _ -> Alcotest.fail "data must follow PIT");
  (* Consumed entry: replay is unsolicited. *)
  match Engine.process ~registry:reg env ~now:0.3 ~ingress:2 data with
  | Engine.Dropped "unsolicited-data", _ -> ()
  | _ -> Alcotest.fail "replayed data must drop"

let test_engine_ndn_cache_responds () =
  let env = ndn_env ~cache_capacity:16 () in
  let name = Name.of_string "/video/intro.mp4" in
  let interest = Realize.ndn_interest ~name ~payload:"" () in
  ignore (Engine.process ~registry:reg env ~now:0.0 ~ingress:7 interest);
  let data = Realize.ndn_data ~name ~content:"cached!" () in
  ignore (Engine.process ~registry:reg env ~now:0.1 ~ingress:2 data);
  (* A later interest is answered from the content store (§4.1 fn 2). *)
  match Engine.process ~registry:reg env ~now:0.5 ~ingress:9 interest with
  | Engine.Responded reply, _ -> (
      match Packet.parse reply with
      | Ok view ->
          Alcotest.(check string) "cached body" "cached!" (Packet.payload view);
          Alcotest.(check int) "reply carries F_PIT" 5
            (Opkey.to_int view.Packet.fns.(0).Fn.key)
      | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "expected a cache response"

let test_engine_ndn_no_fib () =
  let env = Env.create ~name:"r" () in
  let interest = Realize.ndn_interest ~name:(Name.of_string "/nowhere") ~payload:"" () in
  match Engine.process ~registry:reg env ~now:0.0 ~ingress:0 interest with
  | Engine.Dropped "no-fib-entry", _ -> ()
  | _ -> Alcotest.fail "expected FIB miss"

(* --- Engine: OPT over DIP, full 3-hop chain --- *)

let opt_setup hops =
  let g = Dip_stdext.Prng.create 77L in
  let secrets = List.init hops (fun _ -> Dip_opt.Drkey.secret_gen g) in
  let dst_secret = Dip_opt.Drkey.secret_gen g in
  let session_id = 0xABCDEFL in
  let session_keys = Dip_opt.Drkey.session_keys secrets ~session_id in
  let dest_key = Dip_opt.Drkey.derive dst_secret ~session_id in
  let routers =
    List.mapi
      (fun i secret ->
        let env = Env.create ~name:(Printf.sprintf "r%d" (i + 1)) () in
        Env.set_opt_identity env ~secret ~hop:(i + 1);
        (* every router also forwards the packet somewhere *)
        Dip_ip.Ipv4.add_route env.Env.v4_routes
          (Ipaddr.Prefix.of_string "0.0.0.0/0") 1;
        env)
      secrets
  in
  let host = Env.create ~name:"dst" () in
  Env.register_opt_session host ~session_id ~session_keys ~dest_key;
  (session_id, session_keys, dest_key, routers, host)

(* OPT alone has no forwarding FN; pair it with the default route by
   processing through routers that only run the OPT FNs and treat
   "no-forwarding-decision" as pass-through in this unit test. *)
let run_opt_chain pkt routers =
  List.iter
    (fun env ->
      match Engine.process ~registry:reg env ~now:0.0 ~ingress:0 pkt with
      | Engine.Dropped "no-forwarding-decision", _ -> ()
      | Engine.Dropped r, _ -> Alcotest.failf "router dropped: %s" r
      | _ -> ())
    routers

let test_engine_opt_end_to_end () =
  let hops = 3 in
  let session_id, _, dest_key, routers, host = opt_setup hops in
  let payload = "secret content" in
  let pkt =
    Realize.opt ~hops ~session_id ~timestamp:5l ~dest_key ~payload ()
  in
  run_opt_chain pkt routers;
  match Engine.host_process ~registry:reg host ~now:0.0 ~ingress:0 pkt with
  | Engine.Delivered, info ->
      Alcotest.(check int) "host ran F_ver only" 1 info.Engine.ops_run
  | Engine.Dropped r, _ -> Alcotest.failf "verification failed: %s" r
  | _ -> Alcotest.fail "expected delivery"

let test_engine_opt_detects_missing_hop () =
  let hops = 3 in
  let session_id, _, dest_key, routers, host = opt_setup hops in
  let pkt = Realize.opt ~hops ~session_id ~timestamp:5l ~dest_key ~payload:"p" () in
  (* Skip router 2. *)
  run_opt_chain pkt [ List.nth routers 0; List.nth routers 2 ];
  match Engine.host_process ~registry:reg host ~now:0.0 ~ingress:0 pkt with
  | Engine.Dropped r, _ ->
      Alcotest.(check bool) "names OPV 2" true
        (String.length r > 0 && r <> "no-forwarding-decision")
  | _ -> Alcotest.fail "must detect the skipped hop"

let test_engine_opt_detects_payload_tamper () =
  let hops = 2 in
  let session_id, _, dest_key, routers, host = opt_setup hops in
  let pkt = Realize.opt ~hops ~session_id ~timestamp:5l ~dest_key ~payload:"AAAA" () in
  run_opt_chain pkt routers;
  (* Corrupt the payload after the tags were computed. *)
  let last = Bitbuf.length pkt - 1 in
  Bitbuf.set_uint8 pkt last (Bitbuf.get_uint8 pkt last lxor 0xFF);
  match Engine.host_process ~registry:reg host ~now:0.0 ~ingress:0 pkt with
  | Engine.Dropped _, _ -> ()
  | _ -> Alcotest.fail "tampered payload must be rejected"

let test_engine_opt_unknown_session () =
  let hops = 1 in
  let session_id, _, dest_key, routers, _ = opt_setup hops in
  let host = Env.create ~name:"stranger" () in
  let pkt = Realize.opt ~hops ~session_id ~timestamp:0l ~dest_key ~payload:"" () in
  run_opt_chain pkt routers;
  match Engine.host_process ~registry:reg host ~now:0.0 ~ingress:0 pkt with
  | Engine.Dropped "unknown-session", _ -> ()
  | _ -> Alcotest.fail "unknown session must be rejected"

(* --- Engine: NDN+OPT (the derived protocol) --- *)

let test_engine_ndn_opt_data_path () =
  (* One router that is both an NDN forwarder and an OPT hop: the
     data packet must follow the PIT *and* update the tags, then
     verify at the consumer. *)
  let name = Name.of_string "/secure/file" in
  let g = Dip_stdext.Prng.create 99L in
  let secret = Dip_opt.Drkey.secret_gen g in
  let dst_secret = Dip_opt.Drkey.secret_gen g in
  let session_id = 0x55AAL in
  let session_keys = Dip_opt.Drkey.session_keys [ secret ] ~session_id in
  let dest_key = Dip_opt.Drkey.derive dst_secret ~session_id in
  let router = Env.create ~name:"r" () in
  Env.set_opt_identity router ~secret ~hop:1;
  Dip_tables.Name_fib.insert router.Env.fib name 2;
  let consumer = Env.create ~name:"consumer" () in
  Env.register_opt_session consumer ~session_id ~session_keys ~dest_key;
  (* Interest up. *)
  let interest = Realize.ndn_opt_interest ~name ~payload:"" () in
  (match Engine.process ~registry:reg router ~now:0.0 ~ingress:6 interest with
  | Engine.Forwarded [ 2 ], _ -> ()
  | _ -> Alcotest.fail "interest must forward");
  (* Data back, with OPT tags. *)
  let data =
    Realize.ndn_opt_data ~hops:1 ~session_id ~timestamp:9l ~dest_key ~name
      ~content:"secure bytes" ()
  in
  (match Engine.process ~registry:reg router ~now:0.1 ~ingress:2 data with
  | Engine.Forwarded [ 6 ], info ->
      (* F_PIT + F_parm + F_MAC + F_mark ran; F_ver skipped (host). *)
      Alcotest.(check int) "4 router FNs" 4 info.Engine.ops_run;
      Alcotest.(check int) "1 host FN skipped" 1 info.Engine.ops_skipped
  | Engine.Dropped r, _ -> Alcotest.failf "router dropped data: %s" r
  | _ -> Alcotest.fail "data must follow the PIT");
  match Engine.host_process ~registry:reg consumer ~now:0.2 ~ingress:0 data with
  | Engine.Delivered, _ -> ()
  | Engine.Dropped r, _ -> Alcotest.failf "consumer rejected: %s" r
  | _ -> Alcotest.fail "expected verified delivery"

(* --- Engine: XIA over DIP --- *)

let test_engine_xia_forward_and_deliver () =
  let open Dip_xia in
  let svc = Xid.of_name Xid.SID "svc" in
  let dag = Dag.fallback ~intent:svc ~via:[ Xid.of_name Xid.AD "ad1" ] in
  let transit = Env.create ~name:"transit" () in
  Router.add_route transit.Env.xia (Xid.of_name Xid.AD "ad1") 4;
  let pkt = Realize.xia ~dag ~payload:"req" () in
  (match Engine.process ~registry:reg transit ~now:0.0 ~ingress:0 pkt with
  | Engine.Forwarded [ 4 ], _ -> ()
  | Engine.Dropped r, _ -> Alcotest.failf "transit dropped: %s" r
  | _ -> Alcotest.fail "transit must forward by fallback");
  let owner = Env.create ~name:"owner" () in
  Router.add_local owner.Env.xia (Xid.of_name Xid.AD "ad1");
  Router.add_local owner.Env.xia svc;
  match Engine.process ~registry:reg owner ~now:0.0 ~ingress:0 pkt with
  | Engine.Delivered, _ -> ()
  | Engine.Dropped r, _ -> Alcotest.failf "owner dropped: %s" r
  | _ -> Alcotest.fail "intent owner must deliver"

let test_engine_xia_dead_end () =
  let open Dip_xia in
  let dag = Dag.direct (Xid.of_name Xid.SID "nowhere") in
  let env = Env.create ~name:"r" () in
  let pkt = Realize.xia ~dag ~payload:"" () in
  match Engine.process ~registry:reg env ~now:0.0 ~ingress:0 pkt with
  | Engine.Dropped r, _ ->
      Alcotest.(check string) "dead end" "dag: dead-end" r
  | _ -> Alcotest.fail "unroutable DAG must drop"

(* F_dag and F_intent each read and validate their own target where it
   lies, so F_intent acts on the DAG as it is when it runs. The packets
   below run F_dag, then an op standing in for any FN that rewrites
   the same target, then F_intent. *)

let memo_svc = Dip_xia.Xid.of_name Dip_xia.Xid.SID "memo-svc"
let memo_ad = Dip_xia.Xid.of_name Dip_xia.Xid.AD "memo-ad"
let memo_wire = "\x00" ^ Dip_xia.Dag.to_wire (Dip_xia.Dag.fallback ~intent:memo_svc ~via:[ memo_ad ])

(* The intent owner, with [rewrite] installed as F_tel. *)
let memo_owner rewrite =
  let env = Env.create ~name:"owner" () in
  Dip_xia.Router.add_local env.Env.xia memo_ad;
  Dip_xia.Router.add_local env.Env.xia memo_svc;
  let r = Registry.restrict reg Opkey.all in
  Registry.install r Opkey.F_tel (fun _ target ctx ->
      rewrite ctx.Registry.view.Packet.buf (target.Field.off_bits / 8);
      Registry.Continue);
  (env, r)

let memo_packet ?(wire = memo_wire) keys =
  let len = 8 * String.length wire in
  Packet.build ~fns:(List.map (fun k -> Fn.v ~loc:0 ~len k) keys) ~locations:wire
    ~payload:"" ()

let memo_verdict ?wire ?(rewrite = fun _ _ -> ()) keys =
  let env, registry = memo_owner rewrite in
  fst (Engine.process ~registry env ~now:0.0 ~ingress:0 (memo_packet ?wire keys))

let check_dropped what want = function
  | Engine.Dropped r -> Alcotest.(check string) what want r
  | _ -> Alcotest.failf "%s: expected a drop (%s)" what want

let test_xia_memo_rewrite () =
  let keys = [ Opkey.F_dag; Opkey.F_tel; Opkey.F_intent ] in
  (match memo_verdict keys with
  | Engine.Delivered -> ()
  | _ -> Alcotest.fail "unchanged DAG: the owner delivers");
  (* One byte of the intent's identifier (node 2: after the pointer,
     the node count and node 1). *)
  let flip b off =
    let i = off + 1 + 1 + 21 + 5 in
    Bitbuf.set_uint8 b i (Bitbuf.get_uint8 b i lxor 1)
  in
  check_dropped "F_intent acts on the rewritten DAG" "intent-not-local"
    (memo_verdict ~rewrite:flip keys);
  (* A rewritten pointer byte is re-read and bounds-checked. *)
  check_dropped "pointer re-read" "intent: bad pointer"
    (memo_verdict ~rewrite:(fun b off -> Bitbuf.set_uint8 b off 200) keys)

let test_xia_memo_local_intent () =
  let env, registry = memo_owner (fun _ _ -> ()) in
  let pkt = memo_packet [ Opkey.F_dag; Opkey.F_intent ] in
  (match Engine.process ~registry env ~now:0.0 ~ingress:0 pkt with
  | Engine.Delivered, _ -> ()
  | _ -> Alcotest.fail "F_dag advanced to a local intent: delivered");
  let loc = (Packet.parse pkt |> Result.get_ok).Packet.loc_base in
  Alcotest.(check int) "pointer at the intent" 2 (Bitbuf.get_uint8 pkt loc)

let test_xia_drop_reasons () =
  let dag_only = [ Opkey.F_dag; Opkey.F_intent ] and intent_only = [ Opkey.F_intent ] in
  let wire_with f =
    let b = Bytes.of_string memo_wire in
    f b;
    Bytes.to_string b
  in
  let bad_ptr = wire_with (fun b -> Bytes.set_uint8 b 0 9) in
  let no_nodes = wire_with (fun b -> Bytes.set_uint8 b 1 0) in
  let bad_kind = wire_with (fun b -> Bytes.set_uint8 b 2 7) in
  let truncated = String.sub memo_wire 0 (String.length memo_wire - 3) in
  List.iter
    (fun (what, wire, keys, want) ->
      check_dropped what want (memo_verdict ~wire keys))
    [
      ("bad pointer", bad_ptr, dag_only, "dag: bad pointer");
      ("no nodes", no_nodes, dag_only, "dag: malformed DAG");
      ("unknown XID kind", bad_kind, dag_only, "dag: malformed DAG");
      ("truncated", truncated, dag_only, "dag: malformed DAG");
      ("pointer byte only", "\x00", dag_only, "dag: malformed DAG");
      ("intent: bad pointer", bad_ptr, intent_only, "intent: bad pointer");
      ("intent: truncated", truncated, intent_only, "intent: malformed DAG");
    ]

(* --- §2.4: guard --- *)

let test_engine_guard_ops_limit () =
  let env = Env.create ~guard:(Guard.create ~max_ops:1 ()) ~name:"r" () in
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "0.0.0.0/0") 1;
  let pkt = Realize.ipv4 ~src:(v4 "1.2.3.4") ~dst:(v4 "5.6.7.8") ~payload:"" () in
  match Engine.process ~registry:reg env ~now:0.0 ~ingress:0 pkt with
  | Engine.Dropped "guard-ops-exhausted", _ -> ()
  | _ -> Alcotest.fail "2-FN packet must exceed a 1-op budget"

let test_engine_guard_state_limit () =
  let env = Env.create ~guard:(Guard.create ~max_state_bytes:8 ()) ~name:"r" () in
  Dip_tables.Name_fib.insert env.Env.fib (Name.of_string "/a") 1;
  let pkt = Realize.ndn_interest ~name:(Name.of_string "/a") ~payload:"" () in
  match Engine.process ~registry:reg env ~now:0.0 ~ingress:0 pkt with
  | Engine.Dropped "guard-state-exhausted", _ -> ()
  | _ -> Alcotest.fail "PIT insert must exceed an 8-byte state budget"

(* --- §2.4: heterogeneous configuration --- *)

let test_engine_unsupported_mandatory_fn () =
  (* An AS without the OPT modules receives an OPT packet: it must
     return an FN-unsupported notification. *)
  let limited =
    Registry.restrict reg [ Opkey.F_32_match; Opkey.F_128_match; Opkey.F_source ]
  in
  let env = Env.create ~name:"legacy-as" () in
  let pkt =
    Realize.opt ~hops:1 ~session_id:1L ~timestamp:0l
      ~dest_key:(String.make 16 'k') ~payload:"" ()
  in
  match Engine.process ~registry:limited env ~now:0.0 ~ingress:0 pkt with
  | Engine.Unsupported key, _ ->
      Alcotest.(check string) "names the key" "F_parm" (Opkey.name key)
  | _ -> Alcotest.fail "mandatory unsupported FN must be reported"

let test_engine_unsupported_partial_opt () =
  (* An AS with F_parm but not F_MAC runs what it has, then reports
     the first mandatory key it cannot execute. *)
  let partial = Registry.restrict reg [ Opkey.F_parm ] in
  let env = Env.create ~name:"half-as" () in
  Env.set_opt_identity env
    ~secret:(Dip_opt.Drkey.secret_of_string "0123456789abcdef") ~hop:1;
  let pkt =
    Realize.opt ~hops:1 ~session_id:1L ~timestamp:0l
      ~dest_key:(String.make 16 'k') ~payload:"" ()
  in
  match Engine.process ~registry:partial env ~now:0.0 ~ingress:0 pkt with
  | Engine.Unsupported key, info ->
      Alcotest.(check string) "stops at F_MAC" "F_MAC" (Opkey.name key);
      Alcotest.(check int) "F_parm ran first" 1 info.Engine.ops_run
  | _ -> Alcotest.fail "partial OPT support must report F_MAC"

let test_engine_ignorable_telemetry_skipped () =
  (* F_tel is per-AS (§2.4): a node without it forwards and counts
     the skip. *)
  let no_tel =
    Registry.restrict reg [ Opkey.F_32_match; Opkey.F_source ]
  in
  let env = env_with_v4_routes () in
  let pkt =
    Realize.ipv4_telemetry ~max_hops:4 ~src:(v4 "192.0.2.1")
      ~dst:(v4 "10.1.2.3") ~payload:"" ()
  in
  match Engine.process ~registry:no_tel env ~now:0.0 ~ingress:0 pkt with
  | Engine.Forwarded [ 3 ], info ->
      Alcotest.(check int) "telemetry skipped" 1 info.Engine.ops_skipped;
      Alcotest.(check int) "forwarding still ran" 2 info.Engine.ops_run
  | _ -> Alcotest.fail "missing F_tel must not stop forwarding"

let test_engine_ignorable_unsupported_fn () =
  (* F_pass is ignorable: a node without it just skips (§2.4). *)
  let no_pass = Registry.restrict reg [ Opkey.F_fib ] in
  let env = Env.create ~name:"r" () in
  Dip_tables.Name_fib.insert env.Env.fib (Name.of_string "/a") 1;
  let pkt =
    Realize.ndn_interest ~pass:Dip_crypto.Siphash.default_key
      ~name:(Name.of_string "/a") ~payload:"" ()
  in
  match Engine.process ~registry:no_pass env ~now:0.0 ~ingress:0 pkt with
  | Engine.Forwarded [ 1 ], info ->
      Alcotest.(check int) "pass skipped" 1 info.Engine.ops_skipped
  | _ -> Alcotest.fail "ignorable FN must be skipped"

let test_errors_echo_truncated () =
  (* Long rejected packets are echoed only up to the 64-byte limit. *)
  let rejected =
    Realize.ipv4 ~src:(v4 "1.2.3.4") ~dst:(v4 "5.6.7.8")
      ~payload:(String.make 500 'z') ()
  in
  let note = Errors.fn_unsupported ~key:Opkey.F_parm ~rejected in
  match Errors.parse note with
  | Ok { Errors.echo; _ } ->
      Alcotest.(check int) "echo capped at 64" 64 (String.length echo)
  | Error e -> Alcotest.fail e

let test_errors_rejects_noncontrol () =
  let data = Realize.ipv4 ~src:(v4 "1.2.3.4") ~dst:(v4 "5.6.7.8") ~payload:"" () in
  match Errors.parse data with
  | Error "not a control packet" -> ()
  | _ -> Alcotest.fail "data packets must not parse as notifications"

let test_errors_roundtrip () =
  let rejected =
    Realize.ipv4 ~src:(v4 "1.2.3.4") ~dst:(v4 "5.6.7.8") ~payload:"xyz" ()
  in
  let note = Errors.fn_unsupported ~key:Opkey.F_mac ~rejected in
  Alcotest.(check bool) "is control" true (Errors.is_control note);
  Alcotest.(check bool) "data packet is not control" false
    (Errors.is_control rejected);
  match Errors.parse note with
  | Ok { Errors.key; echo } ->
      Alcotest.(check string) "key" "F_MAC" (Opkey.name key);
      Alcotest.(check bool) "echo prefix" true
        (String.length echo > 0
        && String.sub (Bitbuf.to_string rejected) 0 (String.length echo) = echo)
  | Error e -> Alcotest.fail e

(* --- §2.4: F_pass --- *)

let pass_key = Dip_crypto.Siphash.default_key

let test_fpass_accepts_genuine () =
  let env = Env.create ~name:"r" () in
  Env.enable_pass env ~key:pass_key;
  Dip_tables.Name_fib.insert env.Env.fib (Name.of_string "/a") 1;
  let pkt = Realize.ndn_interest ~pass:pass_key ~name:(Name.of_string "/a") ~payload:"" () in
  match Engine.process ~registry:reg env ~now:0.0 ~ingress:0 pkt with
  | Engine.Forwarded [ 1 ], _ -> ()
  | Engine.Dropped r, _ -> Alcotest.failf "genuine dropped: %s" r
  | _ -> Alcotest.fail "genuine labelled packet must pass"

let test_fpass_rejects_forged () =
  let env = Env.create ~name:"r" () in
  Env.enable_pass env ~key:pass_key;
  Dip_tables.Name_fib.insert env.Env.fib (Name.of_string "/a") 1;
  (* Label computed with the wrong key → forgery. *)
  let wrong = Dip_crypto.Siphash.key_of_string "attacker-key-16b" in
  let pkt = Realize.ndn_interest ~pass:wrong ~name:(Name.of_string "/a") ~payload:"" () in
  match Engine.process ~registry:reg env ~now:0.0 ~ingress:0 pkt with
  | Engine.Dropped "pass-verify-failed", _ -> ()
  | _ -> Alcotest.fail "forged label must be dropped"

let test_fpass_disabled_is_free () =
  (* §2.4: "DIP allows the network operators to dynamically adjust
     security policies" — disabled F_pass costs nothing and drops
     nothing. *)
  let env = Env.create ~name:"r" () in
  Dip_tables.Name_fib.insert env.Env.fib (Name.of_string "/a") 1;
  let wrong = Dip_crypto.Siphash.key_of_string "attacker-key-16b" in
  let pkt = Realize.ndn_interest ~pass:wrong ~name:(Name.of_string "/a") ~payload:"" () in
  match Engine.process ~registry:reg env ~now:0.0 ~ingress:0 pkt with
  | Engine.Forwarded [ 1 ], _ -> ()
  | _ -> Alcotest.fail "disabled F_pass must not filter"

(* --- parallel flag --- *)

let test_parallel_depth () =
  (* NDN+OPT: FIB (name) is independent of the OPT chain, but the
     OPT FNs overlap each other, so the critical path is shorter
     than the op count. *)
  let data =
    Realize.ndn_opt_data ~hops:1 ~session_id:1L ~timestamp:0l
      ~dest_key:(String.make 16 'k') ~name:(Name.of_string "/a") ~content:"" ()
  in
  (* Rebuild with the parallel bit set. *)
  let view = match Packet.parse data with Ok v -> v | Error e -> Alcotest.fail e in
  let fns = Array.to_list view.Packet.fns in
  let locations =
    Bitbuf.get_field data
      (Field.v ~off_bits:(8 * view.Packet.loc_base)
         ~len_bits:(8 * view.Packet.header.Header.fn_loc_len))
  in
  let par = Packet.build ~parallel:true ~fns ~locations ~payload:"" () in
  let env = Env.create ~name:"r" () in
  Env.set_opt_identity env ~secret:(Dip_opt.Drkey.secret_of_string "0123456789abcdef") ~hop:1;
  ignore (Engine.process ~registry:reg env ~now:0.0 ~ingress:0 par);
  let _, info = Engine.process ~registry:reg env ~now:0.0 ~ingress:1 par in
  Alcotest.(check bool)
    (Printf.sprintf "depth %d < 5 FNs" info.Engine.parallel_depth)
    true
    (info.Engine.parallel_depth < 5 && info.Engine.parallel_depth >= 1)

let test_parallel_depth_excludes_skipped () =
  (* Regression: a host-tagged FN bridging two otherwise-independent
     router FNs used to lengthen the router's critical path. The two
     F_source slices are disjoint; only the skipped host FN overlaps
     both. *)
  let fns =
    [
      Fn.v ~loc:0 ~len:32 Opkey.F_source;
      Fn.v ~tag:Fn.Host ~loc:0 ~len:64 Opkey.F_ver;
      Fn.v ~loc:32 ~len:32 Opkey.F_source;
    ]
  in
  let pkt =
    Packet.build ~parallel:true ~fns ~locations:(String.make 8 'L') ~payload:"" ()
  in
  let arr = Array.of_list fns in
  Alcotest.(check int) "full-program critical path" 3 (Engine.critical_path arr);
  Alcotest.(check int) "masked critical path" 1
    (Engine.critical_path_over arr ~included:(fun i -> i <> 1));
  let env = Env.create ~name:"r" () in
  let _, info = Engine.process ~registry:reg env ~now:0.0 ~ingress:0 pkt in
  Alcotest.(check int) "router ran the two F_source" 2 info.Engine.ops_run;
  Alcotest.(check int) "depth over executed subset" 1 info.Engine.parallel_depth

let test_parallel_depth_excludes_ignorable () =
  (* Unknown-but-ignorable FNs execute nothing, so a node supporting
     none of the program reports depth 0. *)
  let fns =
    [ Fn.v ~loc:0 ~len:32 Opkey.F_source; Fn.v ~loc:0 ~len:32 Opkey.F_source ]
  in
  let pkt =
    Packet.build ~parallel:true ~fns ~locations:(String.make 4 'L') ~payload:"" ()
  in
  let none = Registry.restrict reg [] in
  let env = Env.create ~name:"r" () in
  let _, info = Engine.process ~registry:none env ~now:0.0 ~ingress:0 pkt in
  Alcotest.(check int) "nothing ran" 0 info.Engine.ops_run;
  Alcotest.(check int) "depth 0 when nothing ran" 0 info.Engine.parallel_depth

(* --- program cache --- *)

let mk_cached_env ?(capacity = 512) () =
  let env = Env.create ~prog_cache_capacity:capacity ~name:"c" () in
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
  env

let dip32 ?(dst = "10.1.2.3") ?(hop_limit = 64) () =
  Realize.ipv4 ~hop_limit ~src:(v4 "192.0.2.1") ~dst:(v4 dst) ~payload:"p" ()

let test_progcache_hit_miss () =
  let env = mk_cached_env () in
  let c = env.Env.prog_cache in
  (* First packet is a miss; later packets of the same program hit,
     independent of addresses and hop limit. *)
  List.iter
    (fun pkt ->
      match Engine.process ~registry:reg env ~now:0.0 ~ingress:0 pkt with
      | Engine.Forwarded _, _ -> ()
      | v, _ -> Alcotest.failf "unexpected verdict %s"
                  (match v with Engine.Dropped r -> r | _ -> "?"))
    [ dip32 (); dip32 ~dst:"10.9.9.9" (); dip32 ~hop_limit:7 () ];
  Alcotest.(check int) "one miss" 1 (Progcache.misses c);
  Alcotest.(check int) "two hits" 2 (Progcache.hits c);
  Alcotest.(check int) "one entry" 1 (Progcache.size c);
  Env.publish_cache_stats env;
  Alcotest.(check int) "mirrored hit counter" 2
    (Dip_netsim.Stats.Counters.get env.Env.counters "progcache.hit");
  Alcotest.(check int) "mirrored miss counter" 1
    (Dip_netsim.Stats.Counters.get env.Env.counters "progcache.miss")

let test_progcache_disabled () =
  let env = mk_cached_env ~capacity:0 () in
  ignore (Engine.process ~registry:reg env ~now:0.0 ~ingress:0 (dip32 ()));
  ignore (Engine.process ~registry:reg env ~now:0.0 ~ingress:0 (dip32 ()));
  Alcotest.(check bool) "disabled" false (Progcache.enabled env.Env.prog_cache);
  Alcotest.(check int) "no hits" 0 (Progcache.hits env.Env.prog_cache);
  Alcotest.(check int) "no misses" 0 (Progcache.misses env.Env.prog_cache)

let test_progcache_lru_eviction () =
  let env = mk_cached_env ~capacity:2 () in
  let c = env.Env.prog_cache in
  (* Three distinct programs (different field locations) through a
     2-entry cache: A B C evicts A, so A misses again. *)
  let prog loc =
    Packet.build
      ~fns:[ Fn.v ~loc ~len:32 Opkey.F_source ]
      ~locations:(String.make 16 'L') ~payload:"" ()
  in
  List.iter
    (fun loc ->
      ignore (Engine.process ~registry:reg env ~now:0.0 ~ingress:0 (prog loc)))
    [ 0; 32; 64; 0 ];
  Alcotest.(check int) "bounded" 2 (Progcache.size c);
  Alcotest.(check int) "A evicted, misses again" 4 (Progcache.misses c);
  Alcotest.(check int) "no hits" 0 (Progcache.hits c)

let test_progcache_verify_memoized () =
  let env = mk_cached_env () in
  let calls = ref 0 in
  let verify _view = incr calls; Ok () in
  for _ = 1 to 3 do
    ignore (Engine.process ~verify ~registry:reg env ~now:0.0 ~ingress:0 (dip32 ()))
  done;
  Alcotest.(check int) "verify ran once for a cached program" 1 !calls;
  (* A known-bad verdict is memoized too: the packet keeps failing
     without re-running the checker. *)
  let bad_calls = ref 0 in
  let bad _view = incr bad_calls; Error "nope" in
  let pkt loc =
    Packet.build ~fns:[ Fn.v ~loc ~len:32 Opkey.F_source ]
      ~locations:(String.make 8 'L') ~payload:"" ()
  in
  let verdicts =
    List.init 3 (fun _ ->
        fst (Engine.process ~verify:bad ~registry:reg env ~now:0.0 ~ingress:0 (pkt 0)))
  in
  Alcotest.(check bool) "all dropped" true
    (List.for_all (function Engine.Dropped "verify: nope" -> true | _ -> false)
       verdicts);
  Alcotest.(check int) "bad verdict memoized" 1 !bad_calls

let test_progcache_cold_cache_agree () =
  (* The cached view must be indistinguishable from the cold parse:
     header, FNs, loc_base, payload. *)
  let env = mk_cached_env () in
  let pkt = dip32 ~hop_limit:9 () in
  ignore (Progcache.parse env.Env.prog_cache pkt);
  let cached =
    match Progcache.parse env.Env.prog_cache pkt with
    | Ok (view, Some _) -> view
    | Ok (_, None) -> Alcotest.fail "expected a cache entry"
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "that was a hit" 1 (Progcache.hits env.Env.prog_cache);
  let cold = match Packet.parse pkt with Ok v -> v | Error e -> Alcotest.fail e in
  Alcotest.(check bool) "headers equal" true
    (cached.Packet.header = cold.Packet.header);
  Alcotest.(check int) "hop limit patched" 9
    cached.Packet.header.Header.hop_limit;
  Alcotest.(check bool) "fns equal" true
    (Array.for_all2 Fn.equal cached.Packet.fns cold.Packet.fns);
  Alcotest.(check int) "loc_base" cold.Packet.loc_base cached.Packet.loc_base;
  Alcotest.(check string) "payload" (Packet.payload cold) (Packet.payload cached)

let test_progcache_shares_fns () =
  (* Programs that differ in their basic header or in some of their
     triples hold one FN value per distinct triple: a miss takes the
     triples the cache knows, and enters the new ones. *)
  let pc = Progcache.create () in
  let a = Fn.v ~loc:0 ~len:32 Opkey.F_32_match
  and b = Fn.v ~loc:32 ~len:32 Opkey.F_source
  and c = Fn.v ~loc:0 ~len:64 Opkey.F_tel in
  let fns next_header l =
    let pkt = Packet.build ~next_header ~fns:l ~locations:(String.make 8 'L') ~payload:"" () in
    (Progcache.probe pc pkt).Progcache.view.Packet.fns
  in
  let p1 = fns 1 [ a; b ] in
  let p2 = fns 2 [ a; b ] in
  let p3 = fns 1 [ c; b ] in
  let p4 = fns 3 [ c ] in
  Alcotest.(check int) "four programs" 4 (Progcache.misses pc);
  Alcotest.(check bool) "known triples shared" true
    (p2.(0) == p1.(0) && p2.(1) == p1.(1) && p3.(1) == p1.(1));
  Alcotest.(check bool) "new triple entered" true (p4.(0) == p3.(0));
  Alcotest.(check bool) "decoded as the cold parse" true
    (Fn.equal p3.(0) c && Fn.equal p1.(0) a)

let test_progcache_truncation_still_errors () =
  (* A packet whose prefix matches a cached program but whose buffer
     is shorter than the full header must fail exactly like the cold
     parse — the hit path may not hand out out-of-bounds slices. *)
  let env = mk_cached_env () in
  let pkt = dip32 () in
  ignore (Progcache.parse env.Env.prog_cache pkt);
  let view = match Packet.parse pkt with Ok v -> v | Error e -> Alcotest.fail e in
  let cut = Header.locations_offset view.Packet.header + 2 in
  let truncated = Bitbuf.of_string (String.sub (Bitbuf.to_string pkt) 0 cut) in
  let cold_err =
    match Packet.parse truncated with Error e -> e | Ok _ -> Alcotest.fail "cold parse accepted"
  in
  (match Progcache.parse env.Env.prog_cache truncated with
  | Error e -> Alcotest.(check string) "same error as cold parse" cold_err e
  | Ok _ -> Alcotest.fail "cached parse accepted a truncated packet")

let test_progcache_control_invalidation () =
  let master = Ops.default_registry () in
  let live = Registry.restrict master [ Opkey.F_32_match; Opkey.F_source ] in
  let env = mk_cached_env () in
  let c = env.Env.prog_cache in
  let key = Dip_crypto.Prf.key_of_string "controller-key-0" in
  let state = Control.initial_state () in
  let push seq cmd =
    match
      Control.apply ~key ~state ~env ~registry:live ~master
        (Control.encode ~key ~seq cmd)
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  ignore (Engine.process ~registry:live env ~now:0.0 ~ingress:0 (dip32 ()));
  let ndn = Realize.ndn_interest ~name:(Name.of_string "/a") ~payload:"" () in
  ignore (Engine.process ~registry:live env ~now:0.0 ~ingress:0 ndn);
  Alcotest.(check int) "two programs cached" 2 (Progcache.size c);
  (* Installing F_FIB must invalidate the NDN program (its verdict and
     unsupported-handling depend on the registry) but not DIP-32. *)
  push 1L (Control.Enable_op Opkey.F_fib);
  Alcotest.(check int) "NDN entry invalidated" 1 (Progcache.size c);
  (* A verifier that reads the live registry, so a verdict memoized
     before a registry change is observably stale after it. *)
  let verifications = ref 0 in
  let verify view =
    incr verifications;
    if
      Array.for_all
        (fun fn -> Registry.supports live fn.Fn.key)
        view.Packet.fns
    then Ok ()
    else Error "op not installed"
  in
  ignore (Engine.process ~verify ~registry:live env ~now:0.0 ~ingress:0 (dip32 ()));
  Alcotest.(check int) "DIP-32 entry survived" 1 (Progcache.hits c);
  (* Disabling an op drops the programs using it. *)
  push 2L (Control.Disable_op Opkey.F_source);
  Alcotest.(check int) "DIP-32 entry invalidated" 0 (Progcache.size c);
  (* The last packet armed the cache's inline parse hint on the DIP-32
     entry; a batch straight after the invalidation must re-verify
     instead of serving the stale entry and its memoized verdict. *)
  let out =
    Engine.process_batch ~verify ~registry:live env ~now:0.0 ~ingress:0
      [| dip32 (); dip32 () |]
  in
  Alcotest.(check int) "re-verified once" 2 !verifications;
  Alcotest.(check bool) "new verdict applies" true
    (Array.for_all
       (function Engine.Dropped "verify: op not installed", _ -> true | _ -> false)
       out)

let test_progcache_stale_verdict_without_control () =
  (* The documented sharp edge: a memoized verdict reflects the world
     at first-parse time. A verifier that reads state other than the
     program and the registry (here a ref) is not re-run when that
     state changes; such changes need an explicit clear. *)
  let env = mk_cached_env () in
  let world = ref (Error "not-yet-deployed") in
  let verify _view = !world in
  let run () = fst (Engine.process ~verify ~registry:reg env ~now:0.0 ~ingress:0 (dip32 ())) in
  Alcotest.(check bool) "rejected at first" true
    (run () = Engine.Dropped "verify: not-yet-deployed");
  world := Ok ();
  Alcotest.(check bool) "stale verdict still rejects" true
    (run () = Engine.Dropped "verify: not-yet-deployed");
  Progcache.clear env.Env.prog_cache;
  Alcotest.(check bool) "clear unsticks it" true
    (match run () with Engine.Forwarded _ -> true | _ -> false)

let test_progcache_direct_registry_change () =
  (* A registry changed directly -- not through Control, no clear --
     between two packets of one cached program: the second packet runs
     the new operation, and a verifier that reads the registry is
     re-run. *)
  let registry = Registry.restrict reg Opkey.all in
  let env = mk_cached_env () in
  let verifications = ref 0 in
  let verify view =
    incr verifications;
    if Array.for_all (fun fn -> Registry.supports registry fn.Fn.key) view.Packet.fns
    then Ok ()
    else Error "op not installed"
  in
  let run () = fst (Engine.process ~verify ~registry env ~now:0.0 ~ingress:0 (dip32 ())) in
  Alcotest.(check bool) "forwards" true
    (match run () with Engine.Forwarded [ 1 ] -> true | _ -> false);
  Alcotest.(check bool) "still forwards" true
    (match run () with Engine.Forwarded [ 1 ] -> true | _ -> false);
  Alcotest.(check int) "verified once" 1 !verifications;
  Registry.install registry Opkey.F_32_match (fun _ _ _ -> Registry.Set_route [ 9 ]);
  Alcotest.(check bool) "the new operation runs" true
    (match run () with Engine.Forwarded [ 9 ] -> true | _ -> false);
  Alcotest.(check int) "re-verified after the change" 2 !verifications;
  Registry.uninstall registry Opkey.F_source;
  Alcotest.(check bool) "the new verdict applies" true
    (run () = Engine.Dropped "verify: op not installed");
  Alcotest.(check int) "one program throughout" 1 (Progcache.misses env.Env.prog_cache)

(* A DIP-32 packet under next header [nh]. *)
let dip32_under nh =
  let pkt = dip32 () in
  Bitbuf.set_uint8 pkt 0 nh;
  pkt

(* A copy of the default registry whose F_32_match counts the programs
   compiled with it: a compile applies the staged operation once. *)
let counting_registry () =
  let registry = Registry.restrict reg Opkey.all in
  let compiles = ref 0 in
  let impl = Option.get (Registry.find reg Opkey.F_32_match) in
  Registry.install registry Opkey.F_32_match (fun fn field ->
      incr compiles;
      impl fn field);
  (registry, compiles)

let forward_one ?verify ~registry env pkt =
  match Engine.process ?verify ~registry env ~now:0.0 ~ingress:0 pkt with
  | Engine.Forwarded [ 1 ], _ -> ()
  | _ -> Alcotest.fail "expected a forward out of port 1"

let test_progcache_next_header_shared () =
  (* One FN program under 96 next headers: 96 entries, counted as 96
     misses, run one program, compiled and verified once. *)
  let registry, compiles = counting_registry () in
  let env = mk_cached_env () in
  let c = env.Env.prog_cache in
  let verifications = ref 0 in
  let verify _ = incr verifications; Ok () in
  for _ = 1 to 2 do
    for nh = 0 to 95 do
      forward_one ~verify ~registry env (dip32_under nh)
    done
  done;
  Alcotest.(check int) "96 misses" 96 (Progcache.misses c);
  Alcotest.(check int) "96 hits" 96 (Progcache.hits c);
  Alcotest.(check int) "96 entries" 96 (Progcache.size c);
  Alcotest.(check int) "compiled once" 1 !compiles;
  Alcotest.(check int) "verified once" 1 !verifications;
  (* A registry change recompiles the program once, for every next
     header. *)
  Registry.install registry Opkey.F_source (Option.get (Registry.find reg Opkey.F_source));
  for nh = 0 to 95 do
    forward_one ~verify ~registry env (dip32_under nh)
  done;
  Alcotest.(check int) "recompiled once" 2 !compiles;
  Alcotest.(check int) "re-verified once" 2 !verifications

let test_progcache_program_outlives_entries () =
  (* The shared program lives while one of its entries is cached: a
     new next header joins it even when its insert evicts the last
     other one. Once every entry is gone, the next miss compiles and
     verifies again. *)
  let registry, compiles = counting_registry () in
  let env = mk_cached_env ~capacity:8 () in
  let c = env.Env.prog_cache in
  let verifications = ref 0 in
  let verify _ = incr verifications; Ok () in
  let other loc =
    Packet.build ~fns:[ Fn.v ~loc ~len:32 Opkey.F_source ] ~locations:(String.make 64 'L')
      ~payload:"" ()
  in
  let others first count =
    for loc = first to first + count - 1 do
      ignore (Engine.process ~verify ~registry env ~now:0.0 ~ingress:0 (other (32 * loc)))
    done
  in
  for nh = 0 to 95 do
    forward_one ~verify ~registry env (dip32_under nh)
  done;
  Alcotest.(check int) "88 evictions" 88 (Progcache.evictions c);
  others 0 7;
  (* Next header 95 is the program's last entry, and the LRU one. *)
  forward_one ~verify ~registry env (dip32_under 200);
  Alcotest.(check int) "joined, not compiled" 1 !compiles;
  Alcotest.(check int) "7 other programs verified" 8 !verifications;
  (* Eight more take the last one. *)
  others 7 8;
  forward_one ~verify ~registry env (dip32_under 0);
  Alcotest.(check int) "compiled again" 2 !compiles;
  Alcotest.(check int) "verified again" 17 !verifications;
  Alcotest.(check int) "misses" (96 + 7 + 1 + 8 + 1) (Progcache.misses c)

(* The slot table against a model: Dip_tables.Lru keyed by the prefix
   string. Random probes over more programs than the capacity (hop
   limits varying), with invalidations and clears mixed in, must give
   the model's hit, miss and eviction counts and size after every
   step -- the eviction order is the model's. *)
let prop_progcache_lru_model =
  QCheck.Test.make ~name:"progcache: slot table = LRU model" ~count:200
    QCheck.(pair (int_range 1 9) (list_of_size (Gen.int_range 1 300) (pair (int_bound 23) (int_bound 40))))
    (fun (capacity, ops) ->
      let keys = [| Opkey.F_source; Opkey.F_32_match; Opkey.F_fib |] in
      let program i hop =
        Packet.build ~next_header:i ~hop_limit:(1 + hop)
          ~fns:[ Fn.v ~loc:0 ~len:32 keys.(i mod 3); Fn.v ~loc:(8 * (i mod 4)) ~len:32 Opkey.F_source ]
          ~locations:(String.make 8 'L') ~payload:"" ()
      in
      let pc = Progcache.create ~capacity () in
      let model = Lru.create ~capacity () in
      let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
      List.for_all
        (fun (i, r) ->
          (if r = 0 then begin
             Progcache.clear pc;
             Lru.clear model
           end
           else if r = 1 then begin
             let k = keys.(i mod 3) in
             let dropped = Progcache.invalidate_key pc k in
             let victims =
               Lru.fold
                 (fun key fns acc -> if List.mem k fns then key :: acc else acc)
                 model []
             in
             List.iter (fun key -> ignore (Lru.remove model key)) victims;
             assert (dropped = List.length victims)
           end
           else begin
             let pkt = program i r in
             let e = Progcache.probe pc pkt in
             assert (e != Progcache.absent);
             let key = Option.get (Progcache.key_of pkt) in
             match Lru.find model key with
             | Some _ -> incr hits
             | None ->
                 incr misses;
                 if Lru.size model = Lru.capacity model then
                   incr evictions;
                 Lru.insert model key [ keys.(i mod 3); Opkey.F_source ]
           end);
          Progcache.hits pc = !hits
          && Progcache.misses pc = !misses
          && Progcache.evictions pc = !evictions
          && Progcache.size pc = Lru.size model)
        ops)

(* --- allocation: the staged hot path --- *)

(* Minor words per call of [f], each call after one of [before],
   which is not counted. The readings stay unboxed floats and the sum
   sits in a float array, so the count allocates nothing itself. *)
let words_after n ~before f =
  for _ = 1 to 16 do
    before ();
    f ()
  done;
  let sum = [| 0.0 |] in
  for _ = 1 to n do
    before ();
    let w0 = Gc.minor_words () in
    f ();
    sum.(0) <- sum.(0) +. (Gc.minor_words () -. w0)
  done;
  sum.(0) /. float_of_int n

let words_per_call n f = words_after n ~before:ignore f

let check_words what ~max words =
  if words > max then Alcotest.failf "%.1f words per %s (> %.0f)" words what max

let test_alloc_probe_lru_hit () =
  (* Two programs in turn: every probe misses the inline hint (armed
     on the other program) and hits the slot table. *)
  let pc = Progcache.create () in
  let a = dip32 () in
  let b = Realize.ndn_interest ~name:(Name.of_string "/a") ~payload:"" () in
  let step () =
    ignore (Sys.opaque_identity (Progcache.probe pc a));
    ignore (Sys.opaque_identity (Progcache.probe pc b))
  in
  let words = words_per_call 5_000 step in
  Alcotest.(check (float 0.0)) "minor words per two LRU-hit probes" 0.0 words;
  Alcotest.(check int) "two misses" 2 (Progcache.misses pc)

(* Probes that miss in turn: [pkts] cycled through a cache of one
   entry fewer, so every probe misses and evicts the LRU entry. *)
let missing_step f pkts =
  let i = ref 0 in
  fun () ->
    f pkts.(!i);
    i := (!i + 1) mod Array.length pkts

(* A miss on a new FN program: three programs through a 2-entry
   cache, each evicting the last entry of another. What the miss
   keeps is its parse, the key and the entry: 70 words, as many as
   before entries of one FN program shared its compiled program. *)
let test_alloc_probe_new_program () =
  (* The parse's count includes the standard library's Hashtbl. *)
  if not (String.starts_with ~prefix:"5.1." Sys.ocaml_version) then Alcotest.skip ();
  let pc = Progcache.create ~capacity:2 () in
  let program loc =
    Packet.build ~fns:[ Fn.v ~loc ~len:32 Opkey.F_source; Fn.v ~loc:0 ~len:32 Opkey.F_32_match ]
      ~locations:(String.make 16 'L') ~payload:"" ()
  in
  let step =
    missing_step
      (fun pkt -> ignore (Sys.opaque_identity (Progcache.probe pc pkt)))
      [| program 32; program 64; program 96 |]
  in
  Alcotest.(check (float 0.0)) "minor words per miss" 70.0 (words_per_call 3_000 step)

(* A miss on a cached FN program under a new next header, through
   Engine.process with a verifier: no parse, no compile, no verify.
   It keeps a header, a view, the key and the entry, and the
   (verdict, info) result of every packet: 28 words, 350 when each
   next header compiled and verified its own program. *)
let test_alloc_engine_known_program_miss () =
  let env = mk_cached_env ~capacity:2 () in
  let verify = Dip_analysis.verifier ~registry:reg () in
  let pkts = Array.init 3 dip32_under in
  let step =
    missing_step
      (fun pkt ->
        Bitbuf.set_uint8 pkt 2 64;
        ignore (Sys.opaque_identity (Engine.process ~verify ~registry:reg env ~now:0.0 ~ingress:0 pkt)))
      pkts
  in
  Alcotest.(check (float 0.0)) "minor words per miss" 28.0 (words_per_call 3_000 step);
  Alcotest.(check int) "every packet missed" (Progcache.misses env.Env.prog_cache)
    (Progcache.evictions env.Env.prog_cache + 2)

(* A node's environment before it holds a route, a program or a PIT
   entry: its FIBs share their chunks and chunk arrays, so what is
   left is a few small tables and registered counters (~780 words;
   4754 when every FIB owned 33 + 129 per-length tables). *)
let test_alloc_env_create () =
  let words = words_per_call 200 (fun () -> ignore (Sys.opaque_identity (Env.create ~name:"n" ()))) in
  if words > 1000.0 then Alcotest.failf "%.0f minor words per Env.create (> 1000)" words

let test_alloc_engine_dip32 () =
  (* A cached DIP-32 packet forwarded by Engine.process: what remains
     is the (verdict, info) result it returns -- 8 words. The verdict
     of a port below 256 is shared and the destination is looked up
     as an unboxed int. *)
  let env = mk_cached_env () in
  let pkt = dip32 () in
  let step () =
    Bitbuf.set_uint8 pkt 2 64;
    ignore (Sys.opaque_identity (Engine.process ~registry:reg env ~now:0.0 ~ingress:0 pkt))
  in
  check_words "cached DIP-32 packet" ~max:8.0 (words_per_call 10_000 step);
  Alcotest.(check int) "one miss" 1 (Progcache.misses env.Env.prog_cache)

(* The same packet through Engine.handler, as the simulator calls it:
   only the one-element action list is allocated -- 6 words. *)
let test_alloc_handler_dip32 () =
  let env = mk_cached_env () in
  let pkt = dip32 () in
  let sim = Dip_netsim.Sim.create () in
  let handler = Engine.handler ~registry:reg env in
  (match handler sim ~now:0.0 ~ingress:0 pkt with
  | [ Dip_netsim.Sim.Forward (1, p) ] when p == pkt -> ()
  | _ -> Alcotest.fail "expected one forward out of port 1");
  let step () =
    Bitbuf.set_uint8 pkt 2 64;
    ignore (Sys.opaque_identity (handler sim ~now:0.0 ~ingress:0 pkt))
  in
  check_words "cached DIP-32 packet through the handler" ~max:6.0
    (words_per_call 10_000 step)

(* Cached router hops of every other realization. Each step restores
   the packet's bytes and processes it again, so every hop does the
   full work on a cache hit. Each ceiling is the count measured at the
   release build (exact: minor words do not vary between runs), so a
   rise of one word fails. The DIP-128, NDN and XIA hops read their
   state in place and look it up in int-keyed tables; the OPT, NDN+OPT
   and EPIC hops derive, expand and check their keys in the identity's
   buffers (Env.opt_identity); the telemetry hop writes its record
   with byte stores. So every one allocates only the 8 words of a
   cached DIP-32 packet. A fall is kept by lowering the ceiling to
   it. *)
let alloc_secret = Dip_opt.Drkey.secret_of_string "alloc-router-key"
let alloc_ad = Dip_xia.Xid.of_name Dip_xia.Xid.AD "alloc-as"

let alloc_env () =
  let env = mk_cached_env () in
  Env.set_opt_identity env ~secret:alloc_secret ~hop:1;
  Dip_xia.Router.add_route env.Env.xia alloc_ad 4;
  Dip_tables.Fib.V6.insert env.Env.v6_routes (v6 "2001:db8::") ~len:32 3;
  env

(* A hop of [pkt] through [env] from [ingress], its bytes restored
   first, and its verdict. *)
let hop env ~ingress pkt =
  let orig = Bitbuf.copy pkt in
  fun () ->
    Bitbuf.blit ~src:orig ~src_off:0 ~dst:pkt ~dst_off:0 ~len:(Bitbuf.length pkt);
    fst (Engine.process ~registry:reg env ~now:0.0 ~ingress pkt)

let check_hop_words name ~max pkt ok =
  let step = hop (alloc_env ()) ~ingress:0 pkt in
  if not (ok (step ())) then Alcotest.failf "%s: unexpected verdict" name;
  check_words ("cached " ^ name ^ " hop") ~max
    (words_per_call 2_000 (fun () -> ignore (Sys.opaque_identity (step ()))))

let test_alloc_opt_hop () =
  check_hop_words "OPT" ~max:8.0
    (Realize.opt ~hops:1 ~session_id:9L ~timestamp:3l ~dest_key:(String.make 16 'd')
       ~payload:"p" ())
    (( = ) (Engine.Dropped "no-forwarding-decision"))

(* The same hop under AES (ablation A2): the CBC-MAC functor runs on
   the span in place, with the state its key holds. *)
let test_alloc_opt_aes_hop () =
  let env = Env.create ~opt_alg:Dip_opt.Protocol.AES ~name:"aes" () in
  Env.set_opt_identity env ~secret:alloc_secret ~hop:1;
  let step =
    hop env ~ingress:0
      (Realize.opt ~hops:1 ~session_id:9L ~timestamp:3l ~dest_key:(String.make 16 'd')
         ~payload:"p" ())
  in
  if step () <> Engine.Dropped "no-forwarding-decision" then
    Alcotest.fail "AES OPT: unexpected verdict";
  check_words "cached AES OPT hop" ~max:8.0
    (words_per_call 2_000 (fun () -> ignore (Sys.opaque_identity (step ()))))

let test_alloc_epic_hop () =
  let key = Dip_epic.Protocol.derive_key alloc_secret ~src:9l ~timestamp:5l in
  check_hop_words "EPIC" ~max:8.0
    (Realize.epic ~hops:1 ~src_id:9l ~timestamp:5l ~hop_keys:[ key ] ~src:(v4 "192.0.2.1")
       ~dst:(v4 "10.1.2.3") ~payload:"x" ())
    (( = ) (Engine.Forwarded [ 1 ]))

let test_alloc_dip128_hop () =
  check_hop_words "DIP-128" ~max:8.0
    (Realize.ipv6 ~src:(v6 "2001:db8:1::1") ~dst:(v6 "2001:db8::7") ~payload:"x" ())
    (( = ) (Engine.Forwarded [ 3 ]))

let test_alloc_telemetry_hop () =
  check_hop_words "telemetry" ~max:8.0
    (Realize.ipv4_telemetry ~max_hops:4 ~src:(v4 "192.0.2.1") ~dst:(v4 "10.1.2.3")
       ~payload:"x" ())
    (( = ) (Engine.Forwarded [ 1 ]))

(* NDN hops come in pairs: an interest from port 6 leaves a PIT entry
   that the data from port 2 consumes, so each is counted after the
   other has run, uncounted, and the PIT is back where it was. The
   NDN+OPT data packet follows an NDN interest for its name. *)
let test_alloc_ndn_hops () =
  let env = alloc_env () in
  let name = Name.of_string "/alloc/ndn" in
  Dip_tables.Name_fib.insert env.Env.fib name 2;
  let interest = hop env ~ingress:6 (Realize.ndn_interest ~name ~payload:"i" ()) in
  let data = hop env ~ingress:2 (Realize.ndn_data ~name ~content:"d" ()) in
  let secure =
    hop env ~ingress:2
      (Realize.ndn_opt_data ~hops:1 ~session_id:9L ~timestamp:3l
         ~dest_key:(String.make 16 'd') ~name ~content:"d" ())
  in
  let expect what verdict v =
    if v <> verdict then Alcotest.failf "%s: unexpected verdict" what
  in
  let run what verdict step () = expect what verdict (step ()) in
  run "interest" (Engine.Forwarded [ 2 ]) interest ();
  run "data" (Engine.Forwarded [ 6 ]) data ();
  run "interest" (Engine.Forwarded [ 2 ]) interest ();
  run "NDN+OPT data" (Engine.Forwarded [ 6 ]) secure ();
  let ignored step () = ignore (Sys.opaque_identity (step ())) in
  check_words "cached NDN interest hop" ~max:8.0
    (words_after 2_000 ~before:(ignored data) (ignored interest));
  check_words "cached NDN data hop" ~max:8.0
    (words_after 2_000 ~before:(ignored interest) (ignored data));
  check_words "cached NDN+OPT data hop" ~max:8.0
    (words_after 2_000 ~before:(ignored interest) (ignored secure))

let test_alloc_xia_hop () =
  let dag =
    Dip_xia.Dag.fallback
      ~intent:(Dip_xia.Xid.of_name Dip_xia.Xid.SID "alloc-svc")
      ~via:[ alloc_ad; Dip_xia.Xid.of_name Dip_xia.Xid.HID "alloc-host" ]
  in
  check_hop_words "XIA" ~max:8.0 (Realize.xia ~dag ~payload:"x" ())
    (( = ) (Engine.Forwarded [ 4 ]))

(* --- bootstrap --- *)

let test_bootstrap_local_offer () =
  let b = Bootstrap.create () in
  Bootstrap.add_as b 100 [ Opkey.F_32_match; Opkey.F_fib ];
  Alcotest.(check (list string)) "offer"
    [ "F_32_match"; "F_FIB" ]
    (List.map Opkey.name (Bootstrap.local_offer b 100))

let test_bootstrap_path_intersection () =
  let b = Bootstrap.create () in
  Bootstrap.add_as b 1 [ Opkey.F_32_match; Opkey.F_parm; Opkey.F_mac; Opkey.F_mark ];
  Bootstrap.add_as b 2 [ Opkey.F_32_match; Opkey.F_parm ];
  Bootstrap.add_as b 3 [ Opkey.F_32_match; Opkey.F_parm; Opkey.F_mac; Opkey.F_mark ];
  Bootstrap.link b 1 2;
  Bootstrap.link b 2 3;
  match Bootstrap.path_supported b ~src:1 ~dst:3 with
  | Some keys ->
      (* AS 2 lacks F_MAC/F_mark, so the path cannot do OPT. *)
      Alcotest.(check (list string)) "intersection"
        [ "F_32_match"; "F_parm" ]
        (List.map Opkey.name keys)
  | None -> Alcotest.fail "path exists"

let test_bootstrap_unreachable () =
  let b = Bootstrap.create () in
  Bootstrap.add_as b 1 [ Opkey.F_32_match ];
  Bootstrap.add_as b 2 [ Opkey.F_32_match ];
  Alcotest.(check bool) "unreachable" true
    (Bootstrap.path_supported b ~src:1 ~dst:2 = None)

let test_bootstrap_plan () =
  Alcotest.(check bool) "satisfied" true
    (Bootstrap.plan ~required:[ Opkey.F_fib ] ~offered:[ Opkey.F_fib; Opkey.F_pit ]
    = Ok ());
  match Bootstrap.plan ~required:[ Opkey.F_mac; Opkey.F_fib ] ~offered:[ Opkey.F_fib ] with
  | Error [ Opkey.F_mac ] -> ()
  | _ -> Alcotest.fail "must report the missing key"

(* --- compat --- *)

let test_compat_tunnel_roundtrip () =
  let dip = Realize.ipv4 ~src:(v4 "10.0.0.1") ~dst:(v4 "10.0.0.2") ~payload:"pp" () in
  let tunneled =
    Compat.encapsulate_ipv4 ~src:(v4 "192.0.2.1") ~dst:(v4 "198.51.100.1") dip
  in
  (* The tunnel packet is a legacy IPv4 packet that legacy routers
     can forward. *)
  (match Dip_ip.Ipv4.decode tunneled with
  | Ok h ->
      Alcotest.(check int) "DIP protocol number" 0xFD
        h.Dip_ip.Ipv4.protocol
  | Error e -> Alcotest.fail e);
  match Compat.decapsulate_ipv4 tunneled with
  | Ok inner -> Alcotest.(check bool) "identical" true (Bitbuf.equal inner dip)
  | Error e -> Alcotest.fail e

let test_compat_decapsulate_rejects () =
  let plain =
    Dip_ip.Ipv4.encode
      { Dip_ip.Ipv4.src = v4 "1.2.3.4"; dst = v4 "5.6.7.8"; ttl = 4;
        protocol = 6; payload_len = 0 }
      ~payload:""
  in
  match Compat.decapsulate_ipv4 plain with
  | Error "tunnel: not a DIP tunnel packet" -> ()
  | _ -> Alcotest.fail "non-tunnel packets must be rejected"

let test_compat_strip_restore () =
  let dip = Realize.ipv4 ~src:(v4 "10.0.0.1") ~dst:(v4 "10.0.0.2") ~payload:"data" () in
  match Compat.strip dip with
  | Error e -> Alcotest.fail e
  | Ok legacy -> (
      (* The stripped packet is locations ∥ payload: 8 + 4 bytes. *)
      Alcotest.(check int) "stripped size" 12 (Bitbuf.length legacy);
      let fns =
        [ Fn.v ~loc:0 ~len:32 Opkey.F_32_match; Fn.v ~loc:32 ~len:32 Opkey.F_source ]
      in
      match Compat.restore ~fns ~loc_len:8 legacy with
      | Error e -> Alcotest.fail e
      | Ok restored -> (
          match Packet.parse restored with
          | Ok view ->
              Alcotest.(check string) "payload back" "data" (Packet.payload view);
              Alcotest.(check int) "2 FNs" 2 (Array.length view.Packet.fns)
          | Error e -> Alcotest.fail e))

let test_compat_restore_preserves_parallel () =
  let legacy = Bitbuf.of_string "ABCDxyz" in
  match
    Compat.restore ~fns:[ Fn.v ~loc:0 ~len:32 Opkey.F_32_match ] ~parallel:true
      ~hop_limit:9 ~loc_len:4 legacy
  with
  | Error e -> Alcotest.fail e
  | Ok pkt -> (
      match Packet.parse pkt with
      | Ok view ->
          Alcotest.(check bool) "parallel bit" true view.Packet.header.Header.parallel;
          Alcotest.(check int) "hop limit" 9 view.Packet.header.Header.hop_limit;
          Alcotest.(check string) "payload split" "xyz" (Packet.payload view)
      | Error e -> Alcotest.fail e)

let test_compat_restore_short () =
  match Compat.restore ~fns:[] ~loc_len:10 (Bitbuf.of_string "short") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short packet must be rejected"

(* --- registry --- *)

let test_registry_restrict_and_supported () =
  let r = Ops.default_registry () in
  Alcotest.(check int) "all 16 installed" 16 (List.length (Registry.supported r));
  let limited = Registry.restrict r [ Opkey.F_fib; Opkey.F_pit ] in
  Alcotest.(check (list string)) "restricted" [ "F_FIB"; "F_PIT" ]
    (List.map Opkey.name (Registry.supported limited));
  Registry.uninstall limited Opkey.F_pit;
  Alcotest.(check bool) "uninstalled" false (Registry.supports limited Opkey.F_pit)


(* --- Host constructions (§2.3): Realize builds, Bootstrap.plan checks --- *)

(* The operation keys a constructed packet asks the network for. *)
let keys_of pkt =
  match Packet.parse pkt with
  | Ok view -> Array.to_list (Array.map (fun fn -> fn.Fn.key) view.Packet.fns)
  | Error e -> Alcotest.fail e

let ipv4_pkt () = Realize.ipv4 ~src:(v4 "1.2.3.4") ~dst:(v4 "5.6.7.8") ~payload:"" ()
let interest_pkt () = Realize.ndn_interest ~name:(Name.of_string "/a") ~payload:"" ()

let test_host_unrestricted () =
  let pkt = ipv4_pkt () in
  Alcotest.(check int) "dip32 header" 26 (Result.get_ok (Packet.header_size pkt));
  (* An all-DIP network offers every installed key (the §2.3
     simplification). *)
  Alcotest.(check bool) "all-DIP offer serves it" true
    (Result.is_ok
       (Bootstrap.plan ~required:(keys_of pkt) ~offered:(Registry.supported reg)))

let test_host_checks_offer () =
  let offered = [ Opkey.F_32_match; Opkey.F_source ] in
  (match Bootstrap.plan ~required:(keys_of (ipv4_pkt ())) ~offered with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "offered keys must work");
  match Bootstrap.plan ~required:(keys_of (interest_pkt ())) ~offered with
  | Error [ Opkey.F_fib ] -> ()
  | _ -> Alcotest.fail "missing F_FIB must be reported"

let test_host_attach_bootstrap () =
  let world = Bootstrap.create () in
  Bootstrap.add_as world 1 [ Opkey.F_fib; Opkey.F_pit ];
  let offered = Bootstrap.local_offer world 1 in
  Alcotest.(check bool) "interest ok" true
    (Result.is_ok (Bootstrap.plan ~required:(keys_of (interest_pkt ())) ~offered));
  Alcotest.(check bool) "ip refused" true
    (Result.is_error (Bootstrap.plan ~required:(keys_of (ipv4_pkt ())) ~offered))

let test_host_attach_path_intersection () =
  let world = Bootstrap.create () in
  Bootstrap.add_as world 1 (Registry.supported reg);
  Bootstrap.add_as world 2 [ Opkey.F_32_match; Opkey.F_source ];
  Bootstrap.link world 1 2;
  let offered =
    match Bootstrap.path_supported world ~src:1 ~dst:2 with
    | Some keys -> keys
    | None -> Alcotest.fail "AS 2 must be reachable from AS 1"
  in
  Alcotest.(check bool) "DIP-32 crosses the path" true
    (Result.is_ok (Bootstrap.plan ~required:(keys_of (ipv4_pkt ())) ~offered));
  (* OPT needs all-path support; AS 2 lacks it. *)
  let g = Dip_stdext.Prng.create 55L in
  let dest_key = Dip_opt.Drkey.derive (Dip_opt.Drkey.secret_gen g) ~session_id:9L in
  let pkt =
    Realize.opt ~hops:1 ~session_id:9L ~timestamp:0l ~dest_key ~payload:"" ()
  in
  match Bootstrap.plan ~required:(keys_of pkt) ~offered with
  | Error missing ->
      Alcotest.(check bool) "names OPT keys" true
        (List.mem Opkey.F_parm missing)
  | Ok () -> Alcotest.fail "path without OPT support must refuse"

let test_host_opt_roundtrip () =
  let g = Dip_stdext.Prng.create 56L in
  let path_secrets = List.init 2 (fun _ -> Dip_opt.Drkey.secret_gen g) in
  let dst_secret = Dip_opt.Drkey.secret_gen g in
  let session_id = 11L in
  (* OPT key negotiation, its transport elided: both ends derive the
     on-path session keys and the destination key. *)
  let session_keys = Dip_opt.Drkey.session_keys path_secrets ~session_id in
  let dest_key = Dip_opt.Drkey.derive dst_secret ~session_id in
  let pkt =
    Realize.opt ~hops:(List.length path_secrets) ~session_id ~timestamp:4l
      ~dest_key ~payload:"data" ()
  in
  (* Run the two on-path routers. *)
  List.iteri
    (fun i secret ->
      let renv = Env.create ~name:(Printf.sprintf "r%d" (i + 1)) () in
      Env.set_opt_identity renv ~secret ~hop:(i + 1);
      ignore (Engine.process ~registry:reg renv ~now:0.0 ~ingress:0 pkt))
    path_secrets;
  (* The destination (same session knowledge) verifies. *)
  let receiver = Env.create ~name:"receiver" () in
  Env.register_opt_session receiver ~session_id ~session_keys ~dest_key;
  match Engine.host_process ~registry:reg receiver ~now:0.0 ~ingress:0 pkt with
  | Engine.Delivered, _ -> ()
  | Engine.Dropped r, _ -> Alcotest.failf "receiver rejected: %s" r
  | _ -> Alcotest.fail "expected delivery"

let test_host_remaining_constructors () =
  let name = Name.of_string "/a/b" in
  Alcotest.(check (list string)) "data" [ "F_PIT" ]
    (List.map Opkey.name (keys_of (Realize.ndn_data ~name ~content:"c" ())));
  let dag = Dip_xia.Dag.direct (Dip_xia.Xid.of_name Dip_xia.Xid.SID "s") in
  let xia = Realize.xia ~dag ~payload:"p" () in
  Alcotest.(check (list string)) "xia" [ "F_DAG"; "F_intent" ]
    (List.map Opkey.name (keys_of xia));
  let g = Dip_stdext.Prng.create 66L in
  let secrets = [ Dip_opt.Drkey.secret_gen g; Dip_opt.Drkey.secret_gen g ] in
  let hop_keys =
    List.map
      (fun s -> Dip_epic.Protocol.derive_key s ~src:1l ~timestamp:2l)
      secrets
  in
  let pkt =
    Realize.epic ~hops:(List.length secrets) ~src_id:1l ~timestamp:2l ~hop_keys
      ~src:(v4 "192.0.2.1") ~dst:(v4 "10.0.0.1") ~payload:"e" ()
  in
  (* The constructed packet passes both routers. *)
  List.iteri
    (fun i secret ->
      let env = Env.create ~name:"r" () in
      Env.set_opt_identity env ~secret ~hop:(i + 1);
      Dip_ip.Ipv4.add_route env.Env.v4_routes
        (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
      match Engine.process ~registry:reg env ~now:0.0 ~ingress:0 pkt with
      | Engine.Forwarded _, _ -> ()
      | Engine.Dropped r, _ -> Alcotest.failf "hop %d dropped: %s" (i + 1) r
      | _ -> Alcotest.fail "expected forward")
    secrets;
  (* A restricted attachment point refuses what it lacks. *)
  Alcotest.(check bool) "xia refused" true
    (Result.is_error
       (Bootstrap.plan ~required:(keys_of xia) ~offered:[ Opkey.F_fib ]))

(* --- QCheck --- *)

let prop_fn_wire_roundtrip =
  QCheck.Test.make ~name:"fn: wire roundtrip" ~count:500
    QCheck.(triple (int_range 0 0xFFFF) (int_range 1 0xFFFF) (pair (int_range 1 15) bool))
    (fun (loc, len, (key, host)) ->
      let key = Option.get (Opkey.of_int key) in
      let fn = Fn.v ~tag:(if host then Fn.Host else Fn.Router) ~loc ~len key in
      let buf = Bitbuf.create 6 in
      Fn.encode fn buf ~pos:0;
      match Fn.decode buf ~pos:0 with Ok fn' -> Fn.equal fn fn' | Error _ -> false)

let prop_fn_decode_total =
  (* Fn.decode must be total: random bytes at any position, including
     out-of-range and truncated ones, yield Ok or Error — never an
     exception. *)
  QCheck.Test.make ~name:"fn: decode never raises" ~count:500
    QCheck.(pair small_string (int_range (-8) 16))
    (fun (bytes, pos) ->
      let buf = Bitbuf.of_string bytes in
      match Fn.decode buf ~pos with Ok _ | Error _ -> true)

let prop_packet_roundtrip =
  QCheck.Test.make ~name:"packet: build/parse roundtrip" ~count:300
    QCheck.(pair (int_range 0 64) small_string)
    (fun (loc_len, payload) ->
      let locations = String.make loc_len 'L' in
      let fns =
        if loc_len >= 4 then [ Fn.v ~loc:0 ~len:32 Opkey.F_fib ] else []
      in
      let buf = Packet.build ~fns ~locations ~payload () in
      match Packet.parse buf with
      | Ok view ->
          Packet.payload view = payload
          && view.Packet.header.Header.fn_loc_len = loc_len
          && Array.length view.Packet.fns = List.length fns
      | Error _ -> false)

let prop_progcache_cold_agree =
  (* Cached parse ≡ cold parse, on well-formed, malformed and
     truncated packets alike — the insert (miss) path, the reuse
     (hit) path, the program under another next header (a miss that
     takes the cached FN program's triples instead of parsing), whole
     and truncated, and a new program whose triples the cache already
     holds under another basic header (here a shorter locations
     region, which can leave an FN out of bounds). One cache sees all
     the variants. *)
  QCheck.Test.make ~name:"progcache: cached parse agrees with cold parse"
    ~count:300
    QCheck.(
      quad
        (list_of_size (Gen.int_range 0 4)
           (triple (int_range 0 200) (int_range 1 56)
              (pair (int_range 1 15) bool)))
        (int_range 0 300) small_string (int_range 0 300))
    (fun (specs, smash, payload, cut) ->
      let fns =
        List.map
          (fun (loc, len, (k, host)) ->
            Fn.v
              ~tag:(if host then Fn.Host else Fn.Router)
              ~loc ~len
              (Option.get (Opkey.of_int k)))
          specs
      in
      (* 32-byte region: every generated FN fits, so malformed inputs
         come from the byte-smash and truncation below. *)
      let built = Packet.build ~fns ~locations:(String.make 32 'L') ~payload () in
      let views_equal a b =
        a.Packet.header = b.Packet.header
        && Array.length a.Packet.fns = Array.length b.Packet.fns
        && Array.for_all2 Fn.equal a.Packet.fns b.Packet.fns
        && a.Packet.loc_base = b.Packet.loc_base
        && Packet.payload a = Packet.payload b
      in
      let cache = Progcache.create () in
      let check_buf str =
        let cold = Packet.parse (Bitbuf.of_string str) in
        let agree = function
          | Ok (v, _) -> (match cold with Ok v' -> views_equal v v' | Error _ -> false)
          | Error e -> (match cold with Error e' -> e = e' | Ok _ -> false)
        in
        agree (Progcache.parse cache (Bitbuf.of_string str))
        && agree (Progcache.parse cache (Bitbuf.of_string str))
      in
      let s = Bitbuf.to_string built in
      let smashed =
        let b = Bytes.of_string s in
        Bytes.set b (smash mod Bytes.length b) '\xFF';
        Bytes.to_string b
      in
      let reheaded =
        let b = Bytes.of_string s in
        Bytes.set b 0 (Char.chr ((Char.code (Bytes.get b 0) + 1) land 0xff));
        Bytes.set_uint16_be b 3
          ((Bytes.get_uint16_be b 3 land 1) lor ((smash mod 33) lsl 1));
        Bytes.to_string b
      in
      let renamed =
        let b = Bytes.of_string s in
        Bytes.set b 0 (Char.chr (smash land 0xff));
        Bytes.to_string b
      in
      check_buf s
      && check_buf (String.sub s 0 (min cut (String.length s)))
      && check_buf renamed
      && check_buf (String.sub renamed 0 (min cut (String.length renamed)))
      && check_buf reheaded
      && check_buf smashed
      && check_buf (String.sub smashed 0 (min cut (String.length smashed))))

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine: same input, same verdict" ~count:200
    QCheck.(pair int32 small_string)
    (fun (dst, payload) ->
      let run () =
        let env = Env.create ~name:"d" () in
        Dip_ip.Ipv4.add_route env.Env.v4_routes
          (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
        let pkt = Realize.ipv4 ~src:(v4 "9.9.9.9") ~dst ~payload () in
        fst (Engine.process ~registry:reg env ~now:0.0 ~ingress:0 pkt)
      in
      run () = run ())

let prop_realize_always_parses =
  (* Every realization must produce a packet its own parser accepts,
     with FN fields inside the locations region. *)
  QCheck.Test.make ~name:"realize: constructions always parse" ~count:200
    QCheck.(pair (int_range 0 5) (int_range 1 4))
    (fun (which, hops) ->
      let dest_key = String.make 16 'k' in
      let name = Name.of_string "/p/q" in
      let pkt =
        match which with
        | 0 -> Realize.ipv4 ~src:(v4 "1.2.3.4") ~dst:(v4 "5.6.7.8") ~payload:"x" ()
        | 1 -> Realize.ipv6 ~src:(v6 "::1") ~dst:(v6 "::2") ~payload:"x" ()
        | 2 -> Realize.ndn_interest ~name ~payload:"x" ()
        | 3 -> Realize.opt ~hops ~session_id:1L ~timestamp:0l ~dest_key ~payload:"x" ()
        | 4 ->
            Realize.ndn_opt_data ~hops ~session_id:1L ~timestamp:0l ~dest_key
              ~name ~content:"x" ()
        | _ ->
            Realize.xia
              ~dag:(Dip_xia.Dag.direct (Dip_xia.Xid.of_name Dip_xia.Xid.SID "s"))
              ~payload:"x" ()
      in
      match Packet.parse pkt with Ok _ -> true | Error _ -> false)

let () =
  Alcotest.run "dip-core"
    [
      ( "opkey",
        [ Alcotest.test_case "Table 1" `Quick test_opkey_table1 ] );
      ( "fn",
        [
          Alcotest.test_case "wire roundtrip" `Quick test_fn_wire_roundtrip;
          Alcotest.test_case "6-byte triples" `Quick test_fn_size_is_6_bytes;
          Alcotest.test_case "tag bit" `Quick test_fn_tag_bit;
          Alcotest.test_case "decode rejects" `Quick test_fn_decode_rejects;
          QCheck_alcotest.to_alcotest prop_fn_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_fn_decode_total;
        ] );
      ( "header",
        [
          Alcotest.test_case "roundtrip" `Quick test_header_roundtrip;
          Alcotest.test_case "basic size" `Quick test_header_basic_size;
          Alcotest.test_case "length derivation" `Quick test_header_length_derivation;
          Alcotest.test_case "loc_len limit" `Quick test_header_loc_len_limit;
          Alcotest.test_case "hop limit" `Quick test_header_hop_limit;
        ] );
      ( "packet",
        [
          Alcotest.test_case "build/parse" `Quick test_packet_build_parse;
          Alcotest.test_case "FN bounds" `Quick test_packet_rejects_fn_out_of_bounds;
          Alcotest.test_case "corrupt FN" `Quick test_packet_parse_rejects_corrupt_fn;
          Alcotest.test_case "set target" `Quick test_packet_set_target;
          QCheck_alcotest.to_alcotest prop_packet_roundtrip;
        ] );
      ( "table2",
        [ Alcotest.test_case "exact reproduction" `Quick test_table2_exact ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_engine_deterministic;
          QCheck_alcotest.to_alcotest prop_realize_always_parses;
        ] );
      ( "engine-ip",
        [
          Alcotest.test_case "dip32 forward" `Quick test_engine_dip32_forward;
          Alcotest.test_case "dip32 no route" `Quick test_engine_dip32_no_route;
          Alcotest.test_case "dip32 local" `Quick test_engine_dip32_local_delivery;
          Alcotest.test_case "dip128 forward" `Quick test_engine_dip128_forward;
          Alcotest.test_case "hop limit" `Quick test_engine_hop_limit_decrement;
          Alcotest.test_case "first decision wins" `Quick test_engine_first_decision_wins;
          Alcotest.test_case "local beats later route" `Quick test_engine_local_beats_later_route;
        ] );
      ( "engine-ndn",
        [
          Alcotest.test_case "interest/data" `Quick test_engine_ndn_interest_then_data;
          Alcotest.test_case "cache responds" `Quick test_engine_ndn_cache_responds;
          Alcotest.test_case "no fib" `Quick test_engine_ndn_no_fib;
        ] );
      ( "engine-opt",
        [
          Alcotest.test_case "end to end" `Quick test_engine_opt_end_to_end;
          Alcotest.test_case "missing hop" `Quick test_engine_opt_detects_missing_hop;
          Alcotest.test_case "payload tamper" `Quick test_engine_opt_detects_payload_tamper;
          Alcotest.test_case "unknown session" `Quick test_engine_opt_unknown_session;
          QCheck_alcotest.to_alcotest prop_opt_random_hops_verify;
        ] );
      ( "engine-ndn-opt",
        [ Alcotest.test_case "data path" `Quick test_engine_ndn_opt_data_path ] );
      ( "engine-xia",
        [
          Alcotest.test_case "forward and deliver" `Quick test_engine_xia_forward_and_deliver;
          Alcotest.test_case "dead end" `Quick test_engine_xia_dead_end;
          Alcotest.test_case "memo: rewritten DAG" `Quick test_xia_memo_rewrite;
          Alcotest.test_case "memo: local intent" `Quick test_xia_memo_local_intent;
          Alcotest.test_case "drop reasons" `Quick test_xia_drop_reasons;
        ] );
      ( "guard",
        [
          Alcotest.test_case "ops limit" `Quick test_engine_guard_ops_limit;
          Alcotest.test_case "state limit" `Quick test_engine_guard_state_limit;
        ] );
      ( "heterogeneous",
        [
          Alcotest.test_case "unsupported mandatory" `Quick test_engine_unsupported_mandatory_fn;
          Alcotest.test_case "unsupported partial OPT" `Quick test_engine_unsupported_partial_opt;
          Alcotest.test_case "ignorable skipped" `Quick test_engine_ignorable_unsupported_fn;
          Alcotest.test_case "ignorable telemetry" `Quick test_engine_ignorable_telemetry_skipped;
          Alcotest.test_case "error message roundtrip" `Quick test_errors_roundtrip;
          Alcotest.test_case "error echo truncated" `Quick test_errors_echo_truncated;
          Alcotest.test_case "error rejects non-control" `Quick test_errors_rejects_noncontrol;
        ] );
      ( "f-pass",
        [
          Alcotest.test_case "accepts genuine" `Quick test_fpass_accepts_genuine;
          Alcotest.test_case "rejects forged" `Quick test_fpass_rejects_forged;
          Alcotest.test_case "disabled is free" `Quick test_fpass_disabled_is_free;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "critical path" `Quick test_parallel_depth;
          Alcotest.test_case "skipped host FNs excluded" `Quick
            test_parallel_depth_excludes_skipped;
          Alcotest.test_case "ignorable FNs excluded" `Quick
            test_parallel_depth_excludes_ignorable;
        ] );
      ( "progcache",
        [
          Alcotest.test_case "hit/miss counting" `Quick test_progcache_hit_miss;
          Alcotest.test_case "disabled cache" `Quick test_progcache_disabled;
          Alcotest.test_case "LRU eviction" `Quick test_progcache_lru_eviction;
          Alcotest.test_case "verify memoized" `Quick test_progcache_verify_memoized;
          Alcotest.test_case "cold/cached agree" `Quick test_progcache_cold_cache_agree;
          Alcotest.test_case "FN definitions shared" `Quick test_progcache_shares_fns;
          Alcotest.test_case "truncation still errors" `Quick
            test_progcache_truncation_still_errors;
          Alcotest.test_case "control invalidation" `Quick
            test_progcache_control_invalidation;
          Alcotest.test_case "stale without control" `Quick
            test_progcache_stale_verdict_without_control;
          Alcotest.test_case "next headers share a program" `Quick
            test_progcache_next_header_shared;
          Alcotest.test_case "program outlives entries" `Quick
            test_progcache_program_outlives_entries;
          Alcotest.test_case "direct registry change" `Quick
            test_progcache_direct_registry_change;
          QCheck_alcotest.to_alcotest prop_progcache_cold_agree;
          QCheck_alcotest.to_alcotest prop_progcache_lru_model;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "probe: LRU hit" `Quick test_alloc_probe_lru_hit;
          Alcotest.test_case "probe: new FN program" `Quick test_alloc_probe_new_program;
          Alcotest.test_case "engine: cached FN program, new next header" `Quick
            test_alloc_engine_known_program_miss;
          Alcotest.test_case "Env.create" `Quick test_alloc_env_create;
          Alcotest.test_case "engine: cached DIP-32" `Quick test_alloc_engine_dip32;
          Alcotest.test_case "handler: cached DIP-32" `Quick test_alloc_handler_dip32;
          Alcotest.test_case "engine: cached DIP-128 hop" `Quick test_alloc_dip128_hop;
          Alcotest.test_case "engine: cached telemetry hop" `Quick test_alloc_telemetry_hop;
          Alcotest.test_case "engine: cached NDN hops" `Quick test_alloc_ndn_hops;
          Alcotest.test_case "engine: cached OPT hop" `Quick test_alloc_opt_hop;
          Alcotest.test_case "engine: cached OPT hop (AES)" `Quick test_alloc_opt_aes_hop;
          Alcotest.test_case "engine: cached EPIC hop" `Quick test_alloc_epic_hop;
          Alcotest.test_case "engine: cached XIA hop" `Quick test_alloc_xia_hop;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "local offer" `Quick test_bootstrap_local_offer;
          Alcotest.test_case "path intersection" `Quick test_bootstrap_path_intersection;
          Alcotest.test_case "unreachable" `Quick test_bootstrap_unreachable;
          Alcotest.test_case "plan" `Quick test_bootstrap_plan;
        ] );
      ( "compat",
        [
          Alcotest.test_case "tunnel roundtrip" `Quick test_compat_tunnel_roundtrip;
          Alcotest.test_case "decapsulate rejects" `Quick test_compat_decapsulate_rejects;
          Alcotest.test_case "strip/restore" `Quick test_compat_strip_restore;
          Alcotest.test_case "restore short" `Quick test_compat_restore_short;
          Alcotest.test_case "restore preserves flags" `Quick test_compat_restore_preserves_parallel;
        ] );
      ( "host",
        [
          Alcotest.test_case "unrestricted" `Quick test_host_unrestricted;
          Alcotest.test_case "checks offer" `Quick test_host_checks_offer;
          Alcotest.test_case "attach bootstrap" `Quick test_host_attach_bootstrap;
          Alcotest.test_case "path intersection" `Quick test_host_attach_path_intersection;
          Alcotest.test_case "OPT roundtrip" `Quick test_host_opt_roundtrip;
          Alcotest.test_case "remaining constructors" `Quick test_host_remaining_constructors;
        ] );
      ( "registry",
        [ Alcotest.test_case "restrict/supported" `Quick test_registry_restrict_and_supported ] );
    ]

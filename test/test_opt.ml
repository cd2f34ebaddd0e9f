(* Tests for the OPT substrate: DRKey derivation, the 544-bit header
   layout implied by the paper's FN triples, and the
   source/router/destination tag chain. *)

open Dip_opt
module Bitbuf = Dip_bitbuf.Bitbuf

let g = Dip_stdext.Prng.create 1234L
let secrets n = List.init n (fun _ -> Drkey.secret_gen g)

let test_drkey_deterministic () =
  let s = Drkey.secret_of_string "router-secret-00" in
  Alcotest.(check string) "same session, same key"
    (Drkey.derive s ~session_id:7L)
    (Drkey.derive s ~session_id:7L);
  Alcotest.(check bool) "sessions separate" true
    (Drkey.derive s ~session_id:7L <> Drkey.derive s ~session_id:8L)

let test_drkey_secrets_separate () =
  let a = Drkey.secret_of_string "router-secret-00" in
  let b = Drkey.secret_of_string "router-secret-01" in
  Alcotest.(check bool) "routers derive different keys" true
    (Drkey.derive a ~session_id:7L <> Drkey.derive b ~session_id:7L)

let test_drkey_session_keys_order () =
  let ss = secrets 3 in
  let ks = Drkey.session_keys ss ~session_id:9L in
  Alcotest.(check int) "arity" 3 (List.length ks);
  List.iteri
    (fun i s ->
      Alcotest.(check string) "path order" (Drkey.derive s ~session_id:9L)
        (List.nth ks i))
    ss

let test_header_sizes () =
  (* hops=1 must give exactly 68 bytes = 544 bits, the F_ver span of
     the paper's key-9 triple, and the value that makes Table 2's
     OPT row equal 98. *)
  Alcotest.(check int) "one hop" 68 (Header.size_bytes ~hops:1);
  Alcotest.(check int) "one hop bits" 544 (Header.size_bits ~hops:1);
  Alcotest.(check int) "per extra hop" 16
    (Header.size_bytes ~hops:2 - Header.size_bytes ~hops:1)

let test_header_field_layout_matches_triples () =
  (* The FN triples of paper §3 pin the layout. *)
  let open Dip_bitbuf.Field in
  Alcotest.(check bool) "F_parm (128,128)" true
    (equal Header.session_id_field (v ~off_bits:128 ~len_bits:128));
  Alcotest.(check bool) "F_MAC (0,416)" true
    (equal Header.mac_span_field (v ~off_bits:0 ~len_bits:416));
  Alcotest.(check bool) "F_mark (288,128)" true
    (equal Header.pvf_field (v ~off_bits:288 ~len_bits:128));
  Alcotest.(check bool) "F_ver (0,544)" true
    (equal (Header.ver_span_field ~hops:1) (v ~off_bits:0 ~len_bits:544))

let test_header_accessors () =
  let buf = Bitbuf.create (Header.size_bytes ~hops:2) in
  Header.set_session_id buf ~base:0 0xDEADL;
  Header.set_timestamp buf ~base:0 123456l;
  Header.set_pvf buf ~base:0 (String.make 16 'P');
  Header.set_opv buf ~base:0 2 (String.make 16 'Q');
  Alcotest.(check int64) "session id" 0xDEADL (Header.get_session_id buf ~base:0);
  Alcotest.(check int32) "timestamp" 123456l (Header.get_timestamp buf ~base:0);
  Alcotest.(check string) "pvf" (String.make 16 'P') (Header.get_pvf buf ~base:0);
  Alcotest.(check string) "opv2" (String.make 16 'Q') (Header.get_opv buf ~base:0 2);
  Alcotest.(check string) "opv1 untouched" (String.make 16 '\000')
    (Header.get_opv buf ~base:0 1)

let test_header_accessors_at_base () =
  (* The same region embedded 30 bytes into a larger packet — the DIP
     FN-locations case. *)
  let buf = Bitbuf.create (30 + Header.size_bytes ~hops:1) in
  Header.set_session_id buf ~base:30 99L;
  Alcotest.(check int64) "offset region" 99L (Header.get_session_id buf ~base:30);
  Alcotest.(check int) "nothing before base" 0 (Bitbuf.get_uint8 buf 29)

let setup ?(alg = Protocol.EM2) ?(hops = 3) ?(payload = "the data") () =
  let path_secrets = secrets hops in
  let dst_secret = Drkey.secret_gen g in
  let session_id = 0x1122334455667788L in
  let session_keys = Drkey.session_keys path_secrets ~session_id in
  let dest_key = Drkey.derive dst_secret ~session_id in
  let buf = Bitbuf.create (Header.size_bytes ~hops) in
  Protocol.source_init ~alg buf ~base:0 ~hops ~session_id ~timestamp:42l
    ~dest_key ~payload;
  (buf, session_keys, dest_key)

let run_routers ?(alg = Protocol.EM2) buf session_keys =
  List.iteri
    (fun i key -> Protocol.router_update ~alg buf ~base:0 ~hop:(i + 1) ~key)
    session_keys

let test_opt_valid_chain () =
  let payload = "the data" in
  let buf, session_keys, dest_key = setup ~payload () in
  run_routers buf session_keys;
  match
    Protocol.verify buf ~base:0 ~hops:3 ~session_keys ~dest_key
      ~payload:(Some payload)
  with
  | Ok () -> ()
  | Error f -> Alcotest.failf "valid chain rejected: %a" Protocol.pp_failure f

let test_opt_detects_payload_tamper () =
  let buf, session_keys, dest_key = setup ~payload:"genuine" () in
  run_routers buf session_keys;
  match
    Protocol.verify buf ~base:0 ~hops:3 ~session_keys ~dest_key
      ~payload:(Some "tampered")
  with
  | Error Protocol.Bad_data_hash -> ()
  | _ -> Alcotest.fail "tampered payload must fail the data hash"

let test_opt_detects_skipped_router () =
  (* A path that skips router 2 (source validation of the path). *)
  let buf, session_keys, dest_key = setup () in
  (match session_keys with
  | [ k1; _; k3 ] ->
      Protocol.router_update buf ~base:0 ~hop:1 ~key:k1;
      Protocol.router_update buf ~base:0 ~hop:3 ~key:k3
  | _ -> assert false);
  match Protocol.verify buf ~base:0 ~hops:3 ~session_keys ~dest_key ~payload:None with
  | Error (Protocol.Bad_opv 2) -> ()
  | Error f -> Alcotest.failf "unexpected failure: %a" Protocol.pp_failure f
  | Ok () -> Alcotest.fail "skipped router must be detected"

let test_opt_detects_wrong_router_key () =
  (* An off-path router (wrong key) performs hop 2's update. *)
  let buf, session_keys, dest_key = setup () in
  let rogue = Drkey.derive (Drkey.secret_gen g) ~session_id:1L in
  (match session_keys with
  | [ k1; _; k3 ] ->
      Protocol.router_update buf ~base:0 ~hop:1 ~key:k1;
      Protocol.router_update buf ~base:0 ~hop:2 ~key:rogue;
      Protocol.router_update buf ~base:0 ~hop:3 ~key:k3
  | _ -> assert false);
  match Protocol.verify buf ~base:0 ~hops:3 ~session_keys ~dest_key ~payload:None with
  | Error (Protocol.Bad_opv 2 | Protocol.Bad_opv 3 | Protocol.Bad_pvf) -> ()
  | Error Protocol.Bad_data_hash -> Alcotest.fail "wrong failure"
  | Error (Protocol.Bad_opv _) -> ()
  | Ok () -> Alcotest.fail "off-path router must be detected"

let test_opt_detects_reordered_path () =
  (* Routers 1 and 2 swap their updates: order must matter. *)
  let buf, session_keys, dest_key = setup () in
  (match session_keys with
  | [ k1; k2; k3 ] ->
      Protocol.router_update buf ~base:0 ~hop:1 ~key:k2;
      Protocol.router_update buf ~base:0 ~hop:2 ~key:k1;
      Protocol.router_update buf ~base:0 ~hop:3 ~key:k3
  | _ -> assert false);
  match Protocol.verify buf ~base:0 ~hops:3 ~session_keys ~dest_key ~payload:None with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "path reordering must be detected"

let test_opt_detects_tag_corruption () =
  let buf, session_keys, dest_key = setup () in
  run_routers buf session_keys;
  (* Flip one bit of OPV 2. *)
  let opv = Bytes.of_string (Header.get_opv buf ~base:0 2) in
  Bytes.set opv 5 (Char.chr (Char.code (Bytes.get opv 5) lxor 0x80));
  Header.set_opv buf ~base:0 2 (Bytes.to_string opv);
  match Protocol.verify buf ~base:0 ~hops:3 ~session_keys ~dest_key ~payload:None with
  | Error (Protocol.Bad_opv 2) -> ()
  | _ -> Alcotest.fail "corrupted OPV must be pinpointed"

let test_opt_single_hop_paper_config () =
  (* "we use one hop for evaluation" (§4.1). *)
  let buf, session_keys, dest_key = setup ~hops:1 ~payload:"p" () in
  run_routers buf session_keys;
  Alcotest.(check int) "wire size" 68 (Bitbuf.length buf);
  match
    Protocol.verify buf ~base:0 ~hops:1 ~session_keys ~dest_key ~payload:(Some "p")
  with
  | Ok () -> ()
  | Error f -> Alcotest.failf "1-hop chain rejected: %a" Protocol.pp_failure f

let test_opt_aes_variant () =
  (* The AES ablation (§4.1's resubmit discussion) must be a working
     cipher swap: valid chains verify, cross-cipher chains do not. *)
  let payload = "x" in
  let buf, session_keys, dest_key = setup ~alg:Protocol.AES ~payload () in
  run_routers ~alg:Protocol.AES buf session_keys;
  (match
     Protocol.verify ~alg:Protocol.AES buf ~base:0 ~hops:3 ~session_keys
       ~dest_key ~payload:(Some payload)
   with
  | Ok () -> ()
  | Error f -> Alcotest.failf "AES chain rejected: %a" Protocol.pp_failure f);
  match
    Protocol.verify ~alg:Protocol.EM2 buf ~base:0 ~hops:3 ~session_keys
      ~dest_key ~payload:None
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "cipher mismatch must not verify"

let test_opt_verify_arity_guard () =
  let buf, session_keys, dest_key = setup () in
  run_routers buf session_keys;
  Alcotest.(check bool) "key arity enforced" true
    (try
       ignore
         (Protocol.verify buf ~base:0 ~hops:3
            ~session_keys:(List.tl session_keys) ~dest_key ~payload:None);
       false
     with Invalid_argument _ -> true)

let prop_opt_random_corruption_detected =
  QCheck.Test.make ~name:"opt: any single-byte corruption of the region is caught"
    ~count:100
    QCheck.(int_range 0 67)
    (fun pos ->
      let payload = "payload" in
      let buf, session_keys, dest_key = setup ~hops:1 ~payload () in
      run_routers buf session_keys;
      let before = Bitbuf.get_uint8 buf pos in
      Bitbuf.set_uint8 buf pos (before lxor 0x01);
      match
        Protocol.verify buf ~base:0 ~hops:1 ~session_keys ~dest_key
          ~payload:(Some payload)
      with
      | Error _ -> true
      | Ok () -> false)

(* --- F_parm, F_MAC and F_mark through the engine --- *)

(* A router hop through Engine.process, whose keys are derived,
   expanded and MACed in the node's identity buffers, against the
   reference derivation of keys_ref.ml: random secrets, session ids,
   timestamps, path lengths and OPV slots (one past the path too),
   under both ciphers. The OPV slots hold random bytes, as earlier
   hops leave them, so the bytes after F_MAC's span are not zero. The
   verdict, the Abort reason and every byte of the packet must
   match. *)
let engine_registry = Dip_core.Ops.default_registry ()

let prop_engine_hop_matches_reference =
  QCheck.Test.make ~name:"engine: OPT hop = reference derivation, bytes included"
    ~count:300
    QCheck.(
      quad (string_of_size (Gen.return 16)) int64
        (pair (int_range 1 4) (int_range 1 5))
        (triple bool int32 (string_of_size (Gen.return 64))))
    (fun (raw, session_id, (hops, hop), (aes, timestamp, opvs)) ->
      let alg = if aes then Protocol.AES else Protocol.EM2 in
      let pkt =
        Dip_core.Realize.opt ~alg ~hops ~session_id ~timestamp
          ~dest_key:(String.make 16 'd') ~payload:"payload" ()
      in
      let base = (Result.get_ok (Dip_core.Packet.parse pkt)).Dip_core.Packet.loc_base in
      Bytes.blit_string opvs 0 (Bitbuf.to_bytes pkt) (base + 52) (16 * hops);
      let env = Dip_core.Env.create ~opt_alg:alg ~name:"r" () in
      Dip_core.Env.set_opt_identity env ~secret:(Drkey.secret_of_string raw) ~hop;
      let want = Bytes.copy (Bitbuf.to_bytes pkt) in
      let want_verdict =
        if hop > hops then Dip_core.Engine.Dropped "opv-slot-out-of-range"
        else begin
          Keys_ref.opt_hop alg raw want ~base ~hop;
          Dip_core.Engine.Dropped "no-forwarding-decision"
        end
      in
      let verdict, _ =
        Dip_core.Engine.process ~registry:engine_registry env ~now:0.0 ~ingress:0 pkt
      in
      verdict = want_verdict && Bytes.equal (Bitbuf.to_bytes pkt) want)

let () =
  Alcotest.run "opt"
    [
      ( "drkey",
        [
          Alcotest.test_case "deterministic" `Quick test_drkey_deterministic;
          Alcotest.test_case "secrets separate" `Quick test_drkey_secrets_separate;
          Alcotest.test_case "session keys order" `Quick test_drkey_session_keys_order;
        ] );
      ( "header",
        [
          Alcotest.test_case "sizes" `Quick test_header_sizes;
          Alcotest.test_case "layout matches FN triples" `Quick
            test_header_field_layout_matches_triples;
          Alcotest.test_case "accessors" `Quick test_header_accessors;
          Alcotest.test_case "accessors at base" `Quick test_header_accessors_at_base;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "valid chain" `Quick test_opt_valid_chain;
          Alcotest.test_case "payload tamper" `Quick test_opt_detects_payload_tamper;
          Alcotest.test_case "skipped router" `Quick test_opt_detects_skipped_router;
          Alcotest.test_case "wrong router key" `Quick test_opt_detects_wrong_router_key;
          Alcotest.test_case "reordered path" `Quick test_opt_detects_reordered_path;
          Alcotest.test_case "tag corruption" `Quick test_opt_detects_tag_corruption;
          Alcotest.test_case "single hop (paper config)" `Quick
            test_opt_single_hop_paper_config;
          Alcotest.test_case "AES variant" `Quick test_opt_aes_variant;
          Alcotest.test_case "verify arity guard" `Quick test_opt_verify_arity_guard;
          QCheck_alcotest.to_alcotest prop_opt_random_corruption_detected;
        ] );
      ("engine", [ QCheck_alcotest.to_alcotest prop_engine_hop_matches_reference ]);
    ]

(* Tests for the EPIC extension (F_hvf, key 15): the header region,
   the check-and-update protocol, and the "every packet is checked"
   property over the DIP engine — routers, not destinations, drop
   invalid packets. *)

open Dip_core
module Epic = Dip_epic
module Bitbuf = Dip_bitbuf.Bitbuf
module Ipaddr = Dip_tables.Ipaddr

let registry = Ops.default_registry ()
let v4 = Ipaddr.V4.of_string
let g = Dip_stdext.Prng.create 2025L
let secrets n = List.init n (fun _ -> Dip_opt.Drkey.secret_gen g)

let hop_keys secrets ~src ~timestamp =
  List.map (fun s -> Epic.Protocol.derive_key s ~src ~timestamp) secrets

(* A router's check under a hop key given as bytes: the key expanded,
   then the in-place check F_hvf runs. *)
let router_check buf ~base ~hop ~key =
  Epic.Protocol.router_check (Dip_crypto.Mac2em.expand_key key) (Bytes.create 16) buf ~base ~hop

(* --- header --- *)

(* The source id, bits [0,32) of the region. F_hvf reads it as bytes,
   with the timestamp, so the library keeps no getter. *)
let get_src buf ~base = Bitbuf.get_uint32 buf base

let test_header_sizes () =
  Alcotest.(check int) "1 hop" 28 (Epic.Header.size_bytes ~hops:1);
  Alcotest.(check int) "per hop" 4
    (Epic.Header.size_bytes ~hops:2 - Epic.Header.size_bytes ~hops:1)

let test_header_accessors () =
  let buf = Bitbuf.create (Epic.Header.size_bytes ~hops:2) in
  Epic.Header.set_src buf ~base:0 7l;
  Epic.Header.set_timestamp buf ~base:0 99l;
  Epic.Header.set_payload_hash buf ~base:0 (String.make 16 'H');
  Epic.Header.set_hvf buf ~base:0 2 0xCAFEBABEl;
  Alcotest.(check int32) "src" 7l (get_src buf ~base:0);
  Alcotest.(check int32) "ts" 99l (Epic.Header.get_timestamp buf ~base:0);
  Alcotest.(check string) "hash" (String.make 16 'H')
    (Epic.Header.get_payload_hash buf ~base:0);
  Alcotest.(check int32) "hvf2" 0xCAFEBABEl (Epic.Header.get_hvf buf ~base:0 2);
  Alcotest.(check int32) "hvf1 untouched" 0l (Epic.Header.get_hvf buf ~base:0 1)

(* --- protocol --- *)

let setup ?(hops = 3) ?(payload = "epic data") () =
  let path = secrets hops in
  let src = 0x5001l and timestamp = 424242l in
  let keys = hop_keys path ~src ~timestamp in
  let buf = Bitbuf.create (Epic.Header.size_bytes ~hops) in
  Epic.Protocol.source_init buf ~base:0 ~src ~timestamp ~hop_keys:keys ~payload;
  (buf, keys)

let test_epic_valid_chain () =
  let payload = "epic data" in
  let buf, keys = setup ~payload () in
  List.iteri
    (fun i key ->
      match router_check buf ~base:0 ~hop:(i + 1) ~key with
      | Epic.Protocol.Forwarded -> ()
      | Epic.Protocol.Rejected -> Alcotest.failf "hop %d rejected valid HVF" (i + 1))
    keys;
  match Epic.Protocol.verify_delivery buf ~base:0 ~hop_keys:keys ~payload:(Some payload) with
  | Ok () -> ()
  | Error i -> Alcotest.failf "destination rejected hop %d" i

let test_epic_router_rejects_forged () =
  let buf, keys = setup () in
  (* Corrupt hop 2's HVF: that router must reject the packet. *)
  Epic.Header.set_hvf buf ~base:0 2 0l;
  (match router_check buf ~base:0 ~hop:1 ~key:(List.nth keys 0) with
  | Epic.Protocol.Forwarded -> ()
  | Epic.Protocol.Rejected -> Alcotest.fail "hop 1 should still pass");
  match router_check buf ~base:0 ~hop:2 ~key:(List.nth keys 1) with
  | Epic.Protocol.Rejected -> ()
  | Epic.Protocol.Forwarded -> Alcotest.fail "forged HVF must be rejected at the router"

let test_epic_replay_rejected () =
  (* After a router verifies-and-updates, replaying the packet
     through the same router fails: the HVF is no longer in origin
     form. *)
  let buf, keys = setup ~hops:1 () in
  let key = List.hd keys in
  Alcotest.(check bool) "first pass" true
    (router_check buf ~base:0 ~hop:1 ~key = Epic.Protocol.Forwarded);
  Alcotest.(check bool) "replay rejected" true
    (router_check buf ~base:0 ~hop:1 ~key = Epic.Protocol.Rejected)

let test_epic_delivery_detects_unchecked_hop () =
  (* If a router was bypassed, its HVF stays in origin form and the
     destination notices. *)
  let buf, keys = setup () in
  ignore (router_check buf ~base:0 ~hop:1 ~key:(List.nth keys 0));
  (* hop 2 skipped *)
  ignore (router_check buf ~base:0 ~hop:3 ~key:(List.nth keys 2));
  match Epic.Protocol.verify_delivery buf ~base:0 ~hop_keys:keys ~payload:None with
  | Error 2 -> ()
  | Error i -> Alcotest.failf "wrong hop reported: %d" i
  | Ok () -> Alcotest.fail "bypassed hop must be detected"

let test_epic_payload_binding () =
  let buf, keys = setup ~hops:1 ~payload:"genuine" () in
  ignore (router_check buf ~base:0 ~hop:1 ~key:(List.hd keys));
  match Epic.Protocol.verify_delivery buf ~base:0 ~hop_keys:keys ~payload:(Some "other") with
  | Error 0 -> ()
  | _ -> Alcotest.fail "payload mismatch must be reported as hop 0"

let test_epic_key_depends_on_src_and_ts () =
  let s = Dip_opt.Drkey.secret_of_string "epic-router-sec!" in
  let a = Epic.Protocol.derive_key s ~src:1l ~timestamp:1l in
  Alcotest.(check bool) "src matters" true
    (a <> Epic.Protocol.derive_key s ~src:2l ~timestamp:1l);
  Alcotest.(check bool) "ts matters" true
    (a <> Epic.Protocol.derive_key s ~src:1l ~timestamp:2l)

(* --- DIP engine integration --- *)

let epic_router ~secret ~hop =
  let env = Env.create ~name:(Printf.sprintf "r%d" hop) () in
  Env.set_opt_identity env ~secret ~hop;
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
  env

let test_engine_epic_forwards_valid () =
  let hops = 2 in
  let path = secrets hops in
  let src_id = 0xAA55l and timestamp = 777l in
  let keys = hop_keys path ~src:src_id ~timestamp in
  let pkt =
    Realize.epic ~hops ~src_id ~timestamp ~hop_keys:keys ~src:(v4 "192.0.2.1")
      ~dst:(v4 "10.0.0.1") ~payload:"pp" ()
  in
  List.iteri
    (fun i secret ->
      let env = epic_router ~secret ~hop:(i + 1) in
      match Engine.process ~registry env ~now:0.0 ~ingress:0 pkt with
      | Engine.Forwarded [ 1 ], _ -> ()
      | Engine.Dropped r, _ -> Alcotest.failf "hop %d dropped: %s" (i + 1) r
      | _ -> Alcotest.fail "expected forward")
    path;
  (* Destination validation. *)
  let view = Result.get_ok (Packet.parse pkt) in
  match
    Epic.Protocol.verify_delivery pkt ~base:view.Packet.loc_base ~hop_keys:keys
      ~payload:(Some "pp")
  with
  | Ok () -> ()
  | Error i -> Alcotest.failf "delivery check failed at hop %d" i

let test_engine_epic_drops_forged_at_router () =
  (* The EPIC property: an attacker without the hop keys cannot get a
     packet past the *first* router — contrast with OPT where the bad
     packet travels to the destination before being rejected. *)
  let hops = 2 in
  let path = secrets hops in
  let forged_keys = List.init hops (fun _ -> String.make 16 'z') in
  let pkt =
    Realize.epic ~hops ~src_id:1l ~timestamp:1l ~hop_keys:forged_keys
      ~src:(v4 "192.0.2.1") ~dst:(v4 "10.0.0.1") ~payload:"evil" ()
  in
  let env = epic_router ~secret:(List.hd path) ~hop:1 in
  match Engine.process ~registry env ~now:0.0 ~ingress:0 pkt with
  | Engine.Dropped "hvf-rejected", _ -> ()
  | _ -> Alcotest.fail "forged packet must die at the first router"

let test_engine_epic_mandatory () =
  (* EPIC needs every on-path AS: a router without F_hvf must return
     the FN-unsupported notification rather than skip the check. *)
  let limited = Registry.restrict registry [ Opkey.F_32_match; Opkey.F_source ] in
  let env = Env.create ~name:"legacy" () in
  let pkt =
    Realize.epic ~hops:1 ~src_id:1l ~timestamp:1l
      ~hop_keys:[ String.make 16 'k' ]
      ~src:(v4 "192.0.2.1") ~dst:(v4 "10.0.0.1") ~payload:"" ()
  in
  match Engine.process ~registry:limited env ~now:0.0 ~ingress:0 pkt with
  | Engine.Unsupported Opkey.F_hvf, _ -> ()
  | _ -> Alcotest.fail "F_hvf must be all-path mandatory"

let prop_epic_corruption_rejected =
  QCheck.Test.make
    ~name:"epic: corrupting the origin region rejects at some router" ~count:150
    QCheck.(int_range 0 23)
    (fun pos ->
      let hops = 2 in
      let path = secrets hops in
      let keys = hop_keys path ~src:9l ~timestamp:9l in
      let buf = Bitbuf.create (Epic.Header.size_bytes ~hops) in
      Epic.Protocol.source_init buf ~base:0 ~src:9l ~timestamp:9l ~hop_keys:keys
        ~payload:"p";
      (* Flip a byte of the origin region (src/ts/hash). *)
      Bitbuf.set_uint8 buf pos (Bitbuf.get_uint8 buf pos lxor 0x40);
      (* With the origin changed, the *carried* HVFs no longer match
         what routers derive — note routers re-derive the key from the
         (corrupted) src/ts, so either hop must reject. *)
      let k1 =
        Epic.Protocol.derive_key (List.hd path)
          ~src:(get_src buf ~base:0)
          ~timestamp:(Epic.Header.get_timestamp buf ~base:0)
      in
      router_check buf ~base:0 ~hop:1 ~key:k1
      = Epic.Protocol.Rejected)

(* F_hvf through Engine.process, whose hop key is derived, expanded
   and checked in the node's identity buffers, against the reference
   derivation of keys_ref.ml: random secrets, sources, timestamps,
   path lengths and HVF slots (one past the path too), the node's OPT
   cipher either way, and packets with one bit flipped in an HVF or
   in the origin. The verdict, the Abort reason and every byte of the
   packet must match. *)
let prop_engine_hvf_matches_reference =
  QCheck.Test.make ~name:"engine: F_hvf = reference derivation, bytes included"
    ~count:300
    QCheck.(
      quad (string_of_size (Gen.return 16)) (pair int32 int32)
        (pair (int_range 1 4) (int_range 1 5))
        (triple bool (int_range 0 2) (int_range 0 1023)))
    (fun (raw, (src_id, timestamp), (hops, hop), (aes, flip, bit)) ->
      let secret = Dip_opt.Drkey.secret_of_string raw in
      let keys =
        List.init hops (fun i ->
            if i + 1 = hop then Epic.Protocol.derive_key secret ~src:src_id ~timestamp
            else String.make 16 (Char.chr (65 + i)))
      in
      let pkt =
        Realize.epic ~hops ~src_id ~timestamp ~hop_keys:keys ~src:(v4 "192.0.2.1")
          ~dst:(v4 "10.0.0.1") ~payload:"p" ()
      in
      let base = (Result.get_ok (Packet.parse pkt)).Packet.loc_base in
      let b = Bitbuf.to_bytes pkt in
      (* 0: no flip; 1: a bit of the HVFs; 2: a bit of source,
         timestamp or payload hash. *)
      let flip_bit at n =
        let i = at + (bit mod n / 8) in
        Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (0x80 lsr (bit mod 8)))
      in
      if flip = 1 then flip_bit (base + 24) (32 * hops)
      else if flip = 2 then flip_bit base 192;
      let env =
        Env.create ~opt_alg:(if aes then Dip_opt.Protocol.AES else Dip_opt.Protocol.EM2)
          ~name:"r" ()
      in
      Env.set_opt_identity env ~secret ~hop;
      Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
      let want = Bytes.copy b in
      let want_verdict =
        if hop > hops then Engine.Dropped "hvf: hop index beyond region"
        else if Keys_ref.epic_hop raw want ~base ~hop then begin
          Bytes.set_uint8 want 2 (Bytes.get_uint8 want 2 - 1);
          Engine.Forwarded [ 1 ]
        end
        else Engine.Dropped "hvf-rejected"
      in
      let verdict, _ = Engine.process ~registry env ~now:0.0 ~ingress:0 pkt in
      verdict = want_verdict && Bytes.equal b want)

let () =
  Alcotest.run "epic"
    [
      ( "header",
        [
          Alcotest.test_case "sizes" `Quick test_header_sizes;
          Alcotest.test_case "accessors" `Quick test_header_accessors;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "valid chain" `Quick test_epic_valid_chain;
          Alcotest.test_case "router rejects forged" `Quick test_epic_router_rejects_forged;
          Alcotest.test_case "replay rejected" `Quick test_epic_replay_rejected;
          Alcotest.test_case "unchecked hop detected" `Quick
            test_epic_delivery_detects_unchecked_hop;
          Alcotest.test_case "payload binding" `Quick test_epic_payload_binding;
          Alcotest.test_case "key derivation inputs" `Quick test_epic_key_depends_on_src_and_ts;
          QCheck_alcotest.to_alcotest prop_epic_corruption_rejected;
        ] );
      ( "engine",
        [
          Alcotest.test_case "forwards valid" `Quick test_engine_epic_forwards_valid;
          Alcotest.test_case "drops forged at router" `Quick
            test_engine_epic_drops_forged_at_router;
          Alcotest.test_case "all-path mandatory" `Quick test_engine_epic_mandatory;
          QCheck_alcotest.to_alcotest prop_engine_hvf_matches_reference;
        ] );
    ]

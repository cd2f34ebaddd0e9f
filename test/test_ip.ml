(* Tests for native IPv4/IPv6 forwarding — the Figure 2 baselines. *)

open Dip_ip
module Bitbuf = Dip_bitbuf.Bitbuf
module Ipaddr = Dip_tables.Ipaddr

let v4 = Ipaddr.V4.of_string
let v6 = Ipaddr.V6.of_string

let v4_header ?(ttl = 64) ~src ~dst payload =
  { Ipv4.src = v4 src; dst = v4 dst; ttl; protocol = 17; payload_len = String.length payload }

(* --- IPv4 --- *)

let test_v4_encode_decode () =
  let h = v4_header ~src:"10.0.0.1" ~dst:"10.0.0.2" "hello" in
  let pkt = Ipv4.encode h ~payload:"hello" in
  Alcotest.(check int) "size" (20 + 5) (Bitbuf.length pkt);
  match Ipv4.decode pkt with
  | Ok h' ->
      Alcotest.(check int32) "src" h.Ipv4.src h'.Ipv4.src;
      Alcotest.(check int32) "dst" h.Ipv4.dst h'.Ipv4.dst;
      Alcotest.(check int) "ttl" 64 h'.Ipv4.ttl;
      Alcotest.(check int) "proto" 17 h'.Ipv4.protocol;
      Alcotest.(check int) "payload_len" 5 h'.Ipv4.payload_len
  | Error e -> Alcotest.fail e

let test_v4_header_size_is_paper_value () =
  (* Table 2: IPv4 forwarding header = 20 bytes. *)
  Alcotest.(check int) "Table 2 row" 20 Ipv4.header_size

let default_route () =
  let table = Dip_tables.Fib.V4.create () in
  Ipv4.add_route table (Ipaddr.Prefix.of_string "0.0.0.0/0") 3;
  table

let test_v4_checksum_detects_corruption () =
  let table = default_route () in
  let pkt = Ipv4.encode (v4_header ~src:"10.0.0.1" ~dst:"10.0.0.2" "") ~payload:"" in
  Bitbuf.set_uint8 pkt 16 99 (* corrupt dst *);
  Alcotest.(check bool) "forward rejects" true
    (Ipv4.forward table pkt = Ipv4.Discard "bad checksum");
  match Ipv4.decode pkt with
  | Error e -> Alcotest.(check string) "decode rejects" "bad checksum" e
  | Ok _ -> Alcotest.fail "decode accepted corrupt packet"

let test_v4_decode_rejects () =
  Alcotest.(check bool) "truncated" true
    (Ipv4.decode (Bitbuf.create 10) = Error "truncated header");
  let b = Bitbuf.create 20 in
  Bitbuf.set_uint8 b 0 0x65 (* version 6 *);
  Alcotest.(check bool) "wrong version" true (Ipv4.decode b = Error "not IPv4")

(* Each hop's RFC 1624 incremental update keeps the checksum valid,
   so the next hop's forward accepts the packet again. *)
let test_v4_ttl_decrement_preserves_checksum () =
  let table = default_route () in
  let pkt = Ipv4.encode (v4_header ~src:"1.2.3.4" ~dst:"5.6.7.8" "x") ~payload:"x" in
  for hop = 1 to 3 do
    Alcotest.(check bool) (Printf.sprintf "hop %d forwards" hop) true
      (Ipv4.forward table pkt = Ipv4.Forward 3)
  done;
  match Ipv4.decode pkt with
  | Ok h -> Alcotest.(check int) "ttl 61" 61 h.Ipv4.ttl
  | Error e -> Alcotest.fail e

let test_v4_ttl_expiry () =
  let pkt = Ipv4.encode (v4_header ~ttl:1 ~src:"1.2.3.4" ~dst:"5.6.7.8" "") ~payload:"" in
  Alcotest.(check bool) "refuses at ttl 1" true
    (Ipv4.forward (default_route ()) pkt = Ipv4.Discard "ttl-expired");
  match Ipv4.decode pkt with
  | Ok h -> Alcotest.(check int) "unchanged" 1 h.Ipv4.ttl
  | Error e -> Alcotest.fail e

let test_v4_forward_lpm () =
  let table = Dip_tables.Fib.V4.create () in
  Ipv4.add_route table (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
  Ipv4.add_route table (Ipaddr.Prefix.of_string "10.1.0.0/16") 2;
  let pkt dst = Ipv4.encode (v4_header ~src:"192.0.2.1" ~dst "") ~payload:"" in
  Alcotest.(check bool) "specific route" true
    (Ipv4.forward table (pkt "10.1.2.3") = Ipv4.Forward 2);
  Alcotest.(check bool) "coarse route" true
    (Ipv4.forward table (pkt "10.9.9.9") = Ipv4.Forward 1);
  Alcotest.(check bool) "no route" true
    (Ipv4.forward table (pkt "203.0.113.9") = Ipv4.Discard "no-route")

let test_v4_forward_local_delivery () =
  let table = Dip_tables.Fib.V4.create () in
  let pkt = Ipv4.encode (v4_header ~src:"192.0.2.1" ~dst:"10.0.0.7" "") ~payload:"" in
  Alcotest.(check bool) "delivered locally" true
    (Ipv4.forward ~local:(v4 "10.0.0.7") table pkt = Ipv4.Deliver)

let test_v4_forward_ttl_drop () =
  let table = Dip_tables.Fib.V4.create () in
  Ipv4.add_route table (Ipaddr.Prefix.of_string "0.0.0.0/0") 0;
  let pkt = Ipv4.encode (v4_header ~ttl:1 ~src:"192.0.2.1" ~dst:"10.0.0.7" "") ~payload:"" in
  Alcotest.(check bool) "ttl expiry" true
    (Ipv4.forward table pkt = Ipv4.Discard "ttl-expired")

let test_v4_add_route_rejects_v6 () =
  let table = Dip_tables.Fib.V4.create () in
  Alcotest.(check bool) "family check" true
    (try
       Ipv4.add_route table (Ipaddr.Prefix.of_string "2001:db8::/32") 0;
       false
     with Invalid_argument _ -> true)

(* --- IPv6 --- *)

let v6_header ?(hop_limit = 64) ~src ~dst payload =
  {
    Ipv6.src = v6 src;
    dst = v6 dst;
    hop_limit;
    next_header = 17;
    payload_len = String.length payload;
  }

let test_v6_encode_decode () =
  let h = v6_header ~src:"2001:db8::1" ~dst:"2001:db8::2" "payload!" in
  let pkt = Ipv6.encode h ~payload:"payload!" in
  Alcotest.(check int) "size" (40 + 8) (Bitbuf.length pkt);
  match Ipv6.decode pkt with
  | Ok h' ->
      Alcotest.(check bool) "src" true (Ipaddr.V6.compare h.Ipv6.src h'.Ipv6.src = 0);
      Alcotest.(check bool) "dst" true (Ipaddr.V6.compare h.Ipv6.dst h'.Ipv6.dst = 0);
      Alcotest.(check int) "hop limit" 64 h'.Ipv6.hop_limit;
      Alcotest.(check int) "payload_len" 8 h'.Ipv6.payload_len
  | Error e -> Alcotest.fail e

let test_v6_header_size_is_paper_value () =
  (* Table 2: IPv6 forwarding header = 40 bytes. *)
  Alcotest.(check int) "Table 2 row" 40 Ipv6.header_size

let test_v6_decode_rejects () =
  Alcotest.(check bool) "truncated" true
    (Ipv6.decode (Bitbuf.create 39) = Error "truncated header");
  let b = Bitbuf.create 40 in
  Bitbuf.set_uint8 b 0 0x45;
  Alcotest.(check bool) "wrong version" true (Ipv6.decode b = Error "not IPv6")

let test_v6_forward_lpm () =
  let table = Dip_tables.Fib.V6.create () in
  Ipv6.add_route table (Ipaddr.Prefix.of_string "2001:db8::/32") 1;
  Ipv6.add_route table (Ipaddr.Prefix.of_string "2001:db8:1::/48") 2;
  let pkt dst = Ipv6.encode (v6_header ~src:"2001:db8::1" ~dst "") ~payload:"" in
  Alcotest.(check bool) "specific" true
    (Ipv6.forward table (pkt "2001:db8:1::5") = Ipv6.Forward 2);
  Alcotest.(check bool) "coarse" true
    (Ipv6.forward table (pkt "2001:db8:2::5") = Ipv6.Forward 1);
  Alcotest.(check bool) "none" true
    (Ipv6.forward table (pkt "2001:db9::1") = Ipv6.Discard "no-route")

let test_v6_hop_limit () =
  let table = Dip_tables.Fib.V6.create () in
  Ipv6.add_route table (Ipaddr.Prefix.of_string "::/0") 0;
  let pkt =
    Ipv6.encode (v6_header ~hop_limit:1 ~src:"2001:db8::1" ~dst:"2001:db8::2" "")
      ~payload:""
  in
  Alcotest.(check bool) "expired" true
    (Ipv6.forward table pkt = Ipv6.Discard "hop-limit-expired")

(* --- end-to-end over the simulator --- *)

let test_v4_chain_simulation () =
  (* h0 -- r1 -- r2 -- h3: a packet addressed to h3 crosses both
     routers, losing two TTL steps. *)
  let sim = Dip_netsim.Sim.create () in
  let delivered = Deliveries.record sim in
  let dst_addr = v4 "10.3.0.1" in
  let host_handler = Ipv4.handler ~local:dst_addr (Dip_tables.Fib.V4.create ()) in
  let mk_router_table port =
    let t = Dip_tables.Fib.V4.create () in
    Ipv4.add_route t (Ipaddr.Prefix.of_string "10.3.0.0/16") port;
    t
  in
  let h0 = Dip_netsim.Sim.add_node sim ~name:"h0" host_handler in
  let r1 = Dip_netsim.Sim.add_node sim ~name:"r1" (Ipv4.handler (mk_router_table 1)) in
  let r2 = Dip_netsim.Sim.add_node sim ~name:"r2" (Ipv4.handler (mk_router_table 1)) in
  let h3 = Dip_netsim.Sim.add_node sim ~name:"h3" host_handler in
  Dip_netsim.Sim.connect sim (h0, 0) (r1, 0);
  Dip_netsim.Sim.connect sim (r1, 1) (r2, 0);
  Dip_netsim.Sim.connect sim (r2, 1) (h3, 0);
  let pkt =
    Ipv4.encode (v4_header ~src:"10.0.0.1" ~dst:"10.3.0.1" "data") ~payload:"data"
  in
  Dip_netsim.Sim.inject sim ~at:0.0 ~node:r1 ~port:0 pkt;
  Dip_netsim.Sim.run sim;
  match delivered () with
  | [ (node, _, delivered) ] ->
      Alcotest.(check int) "reached h3" h3 node;
      (match Ipv4.decode delivered with
      | Ok h -> Alcotest.(check int) "ttl lost 2" 62 h.Ipv4.ttl
      | Error e -> Alcotest.fail e)
  | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l)

let prop_v4_roundtrip =
  QCheck.Test.make ~name:"ipv4: encode/decode roundtrip" ~count:200
    QCheck.(triple int32 int32 small_string)
    (fun (src, dst, payload) ->
      let h =
        { Ipv4.src = src; dst; ttl = 64; protocol = 6;
          payload_len = String.length payload }
      in
      match Ipv4.decode (Ipv4.encode h ~payload) with
      | Ok h' -> h' = h
      | Error _ -> false)

let prop_v6_roundtrip =
  QCheck.Test.make ~name:"ipv6: encode/decode roundtrip" ~count:200
    QCheck.(pair (pair int64 int64) (pair (pair int64 int64) small_string))
    (fun (src, (dst, payload)) ->
      let h =
        { Ipv6.src = src; dst; hop_limit = 64; next_header = 6;
          payload_len = String.length payload }
      in
      match Ipv6.decode (Ipv6.encode h ~payload) with
      | Ok h' -> h' = h
      | Error _ -> false)

let () =
  Alcotest.run "ip"
    [
      ( "ipv4",
        [
          Alcotest.test_case "encode/decode" `Quick test_v4_encode_decode;
          Alcotest.test_case "header size (Table 2)" `Quick test_v4_header_size_is_paper_value;
          Alcotest.test_case "checksum" `Quick test_v4_checksum_detects_corruption;
          Alcotest.test_case "decode rejects" `Quick test_v4_decode_rejects;
          Alcotest.test_case "ttl decrement" `Quick test_v4_ttl_decrement_preserves_checksum;
          Alcotest.test_case "ttl expiry" `Quick test_v4_ttl_expiry;
          Alcotest.test_case "forward lpm" `Quick test_v4_forward_lpm;
          Alcotest.test_case "local delivery" `Quick test_v4_forward_local_delivery;
          Alcotest.test_case "forward ttl drop" `Quick test_v4_forward_ttl_drop;
          Alcotest.test_case "family check" `Quick test_v4_add_route_rejects_v6;
          QCheck_alcotest.to_alcotest prop_v4_roundtrip;
        ] );
      ( "ipv6",
        [
          Alcotest.test_case "encode/decode" `Quick test_v6_encode_decode;
          Alcotest.test_case "header size (Table 2)" `Quick test_v6_header_size_is_paper_value;
          Alcotest.test_case "decode rejects" `Quick test_v6_decode_rejects;
          Alcotest.test_case "forward lpm" `Quick test_v6_forward_lpm;
          Alcotest.test_case "hop limit" `Quick test_v6_hop_limit;
          QCheck_alcotest.to_alcotest prop_v6_roundtrip;
        ] );
      ( "end-to-end",
        [ Alcotest.test_case "v4 chain" `Quick test_v4_chain_simulation ] );
    ]

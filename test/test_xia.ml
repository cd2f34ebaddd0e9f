(* Tests for the XIA substrate: XIDs, DAG addresses and the fallback
   router of paper §3 (F_DAG / F_intent). *)

open Dip_xia
module Sim = Dip_netsim.Sim

let ad name = Xid.of_name Xid.AD name
let hid name = Xid.of_name Xid.HID name
let sid name = Xid.of_name Xid.SID name
let cid name = Xid.of_name Xid.CID name

let test_xid_of_name_deterministic () =
  Alcotest.(check bool) "equal" true (Xid.equal (hid "h1") (hid "h1"));
  Alcotest.(check bool) "kind matters" false (Xid.equal (hid "h1") (sid "h1"));
  Alcotest.(check bool) "name matters" false (Xid.equal (hid "h1") (hid "h2"))

let test_xid_wire_roundtrip () =
  let x = cid "chunk-42" in
  Alcotest.(check bool) "roundtrip" true (Xid.equal x (Xid.of_wire (Xid.to_wire x)));
  Alcotest.(check int) "21 bytes" 21 (String.length (Xid.to_wire x))

let test_xid_wire_rejects () =
  Alcotest.(check bool) "bad length" true
    (try ignore (Xid.of_wire "short"); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad kind" true
    (try ignore (Xid.of_wire ("\x09" ^ String.make 20 'x')); false
     with Invalid_argument _ -> true)

let test_xid_validation () =
  Alcotest.(check bool) "20-byte ids only" true
    (try ignore (Xid.v Xid.AD "short"); false with Invalid_argument _ -> true)

let test_dag_direct () =
  let d = Dag.direct (sid "svc") in
  Alcotest.(check int) "one node" 1 (Dag.node_count d);
  Alcotest.(check bool) "intent" true (Xid.equal (sid "svc") (Dag.intent d));
  Alcotest.(check (list int)) "source edge" [ 1 ] (Dag.successors d 0)

let test_dag_fallback_shape () =
  (* source → intent directly, falling back to AD → HID → intent. *)
  let d = Dag.fallback ~intent:(sid "svc") ~via:[ ad "ad1"; hid "h1" ] in
  Alcotest.(check int) "3 nodes" 3 (Dag.node_count d);
  Alcotest.(check (list int)) "source tries intent first" [ 3; 1 ]
    (Dag.successors d 0);
  Alcotest.(check (list int)) "ad tries intent then hid" [ 3; 2 ]
    (Dag.successors d 1);
  Alcotest.(check (list int)) "hid goes to intent" [ 3 ] (Dag.successors d 2);
  Alcotest.(check (list int)) "intent is sink" [] (Dag.successors d 3)

let test_dag_validation () =
  let x = sid "s" in
  Alcotest.(check bool) "backward edge rejected" true
    (try
       ignore (Dag.make ~nodes:[| x; x |] ~edges:[| [ 2 ]; [ 1 ] |] |> ignore);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unreachable intent rejected" true
    (try
       ignore (Dag.make ~nodes:[| x; x |] ~edges:[| [ 1 ]; []; [] |]);
       false
     with Invalid_argument _ -> true)

let test_dag_wire_roundtrip () =
  let d = Dag.fallback ~intent:(cid "c") ~via:[ ad "a"; hid "h" ] in
  let d' = Dag.of_wire (Dag.to_wire d) in
  Alcotest.(check int) "nodes" (Dag.node_count d) (Dag.node_count d');
  Alcotest.(check bool) "intent" true (Xid.equal (Dag.intent d) (Dag.intent d'));
  List.iter
    (fun i ->
      Alcotest.(check (list int))
        (Printf.sprintf "edges %d" i)
        (Dag.successors d i) (Dag.successors d' i))
    [ 0; 1; 2; 3 ]

let test_dag_wire_rejects_garbage () =
  Alcotest.(check bool) "garbage rejected" true
    (try ignore (Dag.of_wire "\x01garbage"); false
     with Invalid_argument _ -> true)

(* --- Router fallback semantics --- *)

let test_router_direct_route () =
  let r = Router.create () in
  Router.add_route r (sid "svc") 4;
  let d = Dag.direct (sid "svc") in
  match Router.step r d ~ptr:0 with
  | Router.Forward (4, 0) -> ()
  | _ -> Alcotest.fail "expected forward on port 4 without moving the pointer"

let test_router_fallback_order () =
  (* Intent not routable; fallback to the AD path. *)
  let r = Router.create () in
  Router.add_route r (ad "ad1") 2;
  let d = Dag.fallback ~intent:(sid "svc") ~via:[ ad "ad1" ] in
  (match Router.step r d ~ptr:0 with
  | Router.Forward (2, 0) -> ()
  | _ -> Alcotest.fail "expected fallback to AD");
  (* If the intent becomes routable it wins (priority order). *)
  Router.add_route r (sid "svc") 9;
  match Router.step r d ~ptr:0 with
  | Router.Forward (9, 0) -> ()
  | _ -> Alcotest.fail "intent must take priority"

let test_router_pointer_advances_at_owner () =
  (* The AD's border router owns ad1: the pointer moves past it and
     routing continues from the AD node. *)
  let r = Router.create () in
  Router.add_local r (ad "ad1");
  Router.add_route r (hid "h1") 5;
  let d = Dag.fallback ~intent:(sid "svc") ~via:[ ad "ad1"; hid "h1" ] in
  match Router.step r d ~ptr:0 with
  | Router.Forward (5, 1) -> ()
  | Router.Forward (p, ptr) -> Alcotest.failf "got port %d ptr %d" p ptr
  | _ -> Alcotest.fail "expected forward from inside the AD"

let test_router_delivery_at_intent_owner () =
  let r = Router.create () in
  Router.add_local r (hid "h1");
  Router.add_local r (sid "svc");
  let d = Dag.fallback ~intent:(sid "svc") ~via:[ hid "h1" ] in
  match Router.step r d ~ptr:0 with
  | Router.Deliver ptr ->
      Alcotest.(check int) "pointer at intent" (Dag.intent_index d) ptr
  | _ -> Alcotest.fail "owner of the intent must deliver"

let test_router_dead_end () =
  let r = Router.create () in
  let d = Dag.direct (sid "unknown") in
  match Router.step r d ~ptr:0 with
  | Router.Discard "dead-end" -> ()
  | _ -> Alcotest.fail "unroutable DAG must be discarded"

let test_packet_roundtrip_and_process () =
  let r = Router.create () in
  Router.add_route r (ad "ad1") 3;
  let d = Dag.fallback ~intent:(cid "obj") ~via:[ ad "ad1" ] in
  let pkt = Router.encode_packet d ~ptr:0 ~payload:"body" in
  (match Router.decode_packet pkt with
  | Ok (d', ptr, payload) ->
      Alcotest.(check int) "ptr" 0 ptr;
      Alcotest.(check string) "payload" "body" payload;
      Alcotest.(check bool) "intent survives" true
        (Xid.equal (Dag.intent d) (Dag.intent d'))
  | Error e -> Alcotest.fail e);
  match Router.process r pkt with
  | Router.Forward (3, _) -> ()
  | _ -> Alcotest.fail "process must route via the packet bytes"

let test_decode_rejects () =
  Alcotest.(check bool) "empty" true
    (Router.decode_packet (Dip_bitbuf.Bitbuf.of_string "") = Error "empty packet");
  Alcotest.(check bool) "garbage" true
    (match Router.decode_packet (Dip_bitbuf.Bitbuf.of_string "\x00\xff\xff") with
    | Error _ -> true
    | Ok _ -> false)

(* End-to-end: client → transit (routes ADs) → border (owns AD,
   routes HIDs) → host (owns HID + SID). *)
let test_xia_end_to_end () =
  let svc = sid "the-service" in
  let dag = Dag.fallback ~intent:svc ~via:[ ad "dest-ad"; hid "dest-host" ] in
  let sim = Sim.create () in
  let delivered = Deliveries.record sim in
  let transit = Router.create () in
  Router.add_route transit (ad "dest-ad") 1;
  let border = Router.create () in
  Router.add_local border (ad "dest-ad");
  Router.add_route border (hid "dest-host") 1;
  let host = Router.create () in
  Router.add_local host (hid "dest-host");
  Router.add_local host svc;
  let t = Sim.add_node sim ~name:"transit" (Router.handler transit) in
  let b = Sim.add_node sim ~name:"border" (Router.handler border) in
  let h = Sim.add_node sim ~name:"host" (Router.handler host) in
  Sim.connect sim (t, 1) (b, 0);
  Sim.connect sim (b, 1) (h, 0);
  Sim.inject sim ~at:0.0 ~node:t ~port:0
    (Router.encode_packet dag ~ptr:0 ~payload:"request");
  Sim.run sim;
  match delivered () with
  | [ (node, _, _) ] -> Alcotest.(check int) "delivered at host" h node
  | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l)

let prop_dag_wire_roundtrip =
  QCheck.Test.make ~name:"xia: fallback DAG wire roundtrip" ~count:200
    QCheck.(int_range 0 6)
    (fun k ->
      let via = List.init k (fun i -> hid (Printf.sprintf "via%d" i)) in
      let d = Dag.fallback ~intent:(sid "s") ~via in
      let d' = Dag.of_wire (Dag.to_wire d) in
      Dag.node_count d = Dag.node_count d'
      && List.for_all
           (fun i -> Dag.successors d i = Dag.successors d' i)
           (List.init (Dag.node_count d + 1) Fun.id))

(* The slice decoder is total on any bytes at any position: random
   bytes, or a real DAG with one byte overwritten and junk after it,
   are decoded or refused, never raised on. *)
let prop_decode_slice_total =
  QCheck.Test.make ~name:"xia: slice decoder never raises" ~count:1000
    QCheck.(triple (string_of_size (Gen.int_range 0 300)) small_nat (int_range 0 3))
    (fun (junk, cut, k) ->
      let via = List.init k (fun i -> hid (string_of_int i)) in
      let wire = "\x01" ^ Dag.to_wire (Dag.fallback ~intent:(sid "s") ~via) in
      let b = Bytes.of_string (if cut mod 3 = 0 then junk else wire ^ junk) in
      let n = Bytes.length b in
      if n > 0 && junk <> "" then Bytes.set b (cut mod n) junk.[0];
      let pos = cut mod (n + 1) in
      match Router.decode_slice b ~pos ~len:(n - pos) with
      | Ok (d, ptr, stop) -> ptr <= Dag.node_count d && stop <= n
      | Error _ -> true)

let prop_decode_slice_roundtrip =
  QCheck.Test.make ~name:"xia: slice decode (encode dag) roundtrip" ~count:300
    QCheck.(quad (int_range 0 6) (int_range 0 40) (int_range 0 40) (int_range 0 7))
    (fun (k, pre, post, ptr) ->
      let via = List.init k (fun i -> if i mod 2 = 0 then ad (string_of_int i) else hid (string_of_int i)) in
      let d = Dag.fallback ~intent:(cid "c") ~via in
      let ptr = min ptr (Dag.node_count d) in
      let wire = String.make 1 (Char.chr ptr) ^ Dag.to_wire d in
      let b = Bytes.of_string (String.make pre '\xee' ^ wire ^ String.make post '\xee') in
      match Router.decode_slice b ~pos:pre ~len:(String.length wire + post) with
      | Ok (d', ptr', stop) ->
          ptr' = ptr
          && stop = pre + String.length wire
          && Dag.to_wire d' = Dag.to_wire d
      | Error _ -> false)

let () =
  Alcotest.run "xia"
    [
      ( "xid",
        [
          Alcotest.test_case "of_name deterministic" `Quick test_xid_of_name_deterministic;
          Alcotest.test_case "wire roundtrip" `Quick test_xid_wire_roundtrip;
          Alcotest.test_case "wire rejects" `Quick test_xid_wire_rejects;
          Alcotest.test_case "validation" `Quick test_xid_validation;
        ] );
      ( "dag",
        [
          Alcotest.test_case "direct" `Quick test_dag_direct;
          Alcotest.test_case "fallback shape" `Quick test_dag_fallback_shape;
          Alcotest.test_case "validation" `Quick test_dag_validation;
          Alcotest.test_case "wire roundtrip" `Quick test_dag_wire_roundtrip;
          Alcotest.test_case "wire rejects garbage" `Quick test_dag_wire_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_dag_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_decode_slice_total;
          QCheck_alcotest.to_alcotest prop_decode_slice_roundtrip;
        ] );
      ( "router",
        [
          Alcotest.test_case "direct route" `Quick test_router_direct_route;
          Alcotest.test_case "fallback order" `Quick test_router_fallback_order;
          Alcotest.test_case "pointer advances at owner" `Quick
            test_router_pointer_advances_at_owner;
          Alcotest.test_case "delivery at intent owner" `Quick
            test_router_delivery_at_intent_owner;
          Alcotest.test_case "dead end" `Quick test_router_dead_end;
          Alcotest.test_case "packet roundtrip/process" `Quick
            test_packet_roundtrip_and_process;
          Alcotest.test_case "decode rejects" `Quick test_decode_rejects;
        ] );
      ( "end-to-end",
        [ Alcotest.test_case "three-router delivery" `Quick test_xia_end_to_end ] );
    ]

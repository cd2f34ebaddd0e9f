(* Tests for the XIA substrate: XIDs, DAG addresses and the fallback
   router of paper §3 (F_DAG / F_intent), the packet cases through
   the DIP engine. *)

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
  let d' = Xia_ref.of_wire (Dag.to_wire d) in
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
    (try ignore (Xia_ref.of_wire "\x01garbage"); false
     with Invalid_argument _ -> true)

(* --- Router fallback semantics --- *)

let test_router_direct_route () =
  let r = Router.create () in
  Router.add_route r (sid "svc") 4;
  let d = Dag.direct (sid "svc") in
  match Xia_ref.step r d ~ptr:0 with
  | Xia_ref.Forward (4, 0) -> ()
  | _ -> Alcotest.fail "expected forward on port 4 without moving the pointer"

let test_router_fallback_order () =
  (* Intent not routable; fallback to the AD path. *)
  let r = Router.create () in
  Router.add_route r (ad "ad1") 2;
  let d = Dag.fallback ~intent:(sid "svc") ~via:[ ad "ad1" ] in
  (match Xia_ref.step r d ~ptr:0 with
  | Xia_ref.Forward (2, 0) -> ()
  | _ -> Alcotest.fail "expected fallback to AD");
  (* If the intent becomes routable it wins (priority order). *)
  Router.add_route r (sid "svc") 9;
  match Xia_ref.step r d ~ptr:0 with
  | Xia_ref.Forward (9, 0) -> ()
  | _ -> Alcotest.fail "intent must take priority"

let test_router_pointer_advances_at_owner () =
  (* The AD's border router owns ad1: the pointer moves past it and
     routing continues from the AD node. *)
  let r = Router.create () in
  Router.add_local r (ad "ad1");
  Router.add_route r (hid "h1") 5;
  let d = Dag.fallback ~intent:(sid "svc") ~via:[ ad "ad1"; hid "h1" ] in
  match Xia_ref.step r d ~ptr:0 with
  | Xia_ref.Forward (5, 1) -> ()
  | Xia_ref.Forward (p, ptr) -> Alcotest.failf "got port %d ptr %d" p ptr
  | _ -> Alcotest.fail "expected forward from inside the AD"

let test_router_delivery_at_intent_owner () =
  let r = Router.create () in
  Router.add_local r (hid "h1");
  Router.add_local r (sid "svc");
  let d = Dag.fallback ~intent:(sid "svc") ~via:[ hid "h1" ] in
  match Xia_ref.step r d ~ptr:0 with
  | Xia_ref.Deliver ptr ->
      Alcotest.(check int) "pointer at intent" (Dag.intent_index d) ptr
  | _ -> Alcotest.fail "owner of the intent must deliver"

let test_router_dead_end () =
  let r = Router.create () in
  let d = Dag.direct (sid "unknown") in
  match Xia_ref.step r d ~ptr:0 with
  | Xia_ref.Discard "dead-end" -> ()
  | _ -> Alcotest.fail "unroutable DAG must be discarded"

(* The packet-level cases run the DIP realization (paper §3: pointer
   and DAG in the FN locations, F_DAG then F_intent) through
   Algorithm 1, with each node's XIA routes in its Env. *)

let registry = Dip_core.Ops.default_registry ()

let test_packet_roundtrip_and_process () =
  let env = Dip_core.Env.create ~name:"r" () in
  Router.add_route env.Dip_core.Env.xia (ad "ad1") 3;
  let d = Dag.fallback ~intent:(cid "obj") ~via:[ ad "ad1" ] in
  let pkt = Dip_core.Realize.xia ~dag:d ~payload:"body" () in
  (match Dip_core.Packet.parse pkt with
  | Error e -> Alcotest.fail e
  | Ok view -> (
      Alcotest.(check string) "payload" "body" (Dip_core.Packet.payload view);
      (* The pointer byte and DAG that F_DAG reads. *)
      let wire = Dip_core.Packet.get_target view view.Dip_core.Packet.fns.(0) in
      match
        Xia_ref.decode_slice (Bytes.of_string wire) ~pos:0 ~len:(String.length wire)
      with
      | Ok (d', ptr, _) ->
          Alcotest.(check int) "ptr" 0 ptr;
          Alcotest.(check bool) "intent survives" true
            (Xid.equal (Dag.intent d) (Dag.intent d'))
      | Error e -> Alcotest.fail e));
  match Dip_core.Engine.process ~registry env ~now:0.0 ~ingress:0 pkt with
  | Dip_core.Engine.Forwarded [ 3 ], _ -> ()
  | _ -> Alcotest.fail "process must route via the packet bytes"

let test_decode_rejects () =
  Alcotest.(check bool) "empty" true
    (Xia_ref.decode_slice Bytes.empty ~pos:0 ~len:0 = Error "empty packet");
  Alcotest.(check bool) "garbage" true
    (match Xia_ref.decode_slice (Bytes.of_string "\x00\xff\xff") ~pos:0 ~len:3 with
    | Error _ -> true
    | Ok _ -> false);
  (* The same bytes as an F_DAG target: the engine drops the packet. *)
  let pkt =
    Dip_core.Packet.build
      ~fns:[ Dip_core.Fn.v ~loc:0 ~len:24 Dip_core.Opkey.F_dag ]
      ~locations:"\x00\xff\xff" ~payload:"" ()
  in
  match
    Dip_core.Engine.process ~registry (Dip_core.Env.create ~name:"r" ())
      ~now:0.0 ~ingress:0 pkt
  with
  | Dip_core.Engine.Dropped r, _ ->
      Alcotest.(check string) "reason" "dag: malformed DAG" r
  | _ -> Alcotest.fail "a malformed DAG must be dropped"

(* End-to-end: client → transit (routes ADs) → border (owns AD,
   routes HIDs) → host (owns HID + SID). *)
let test_xia_end_to_end () =
  let svc = sid "the-service" in
  let dag = Dag.fallback ~intent:svc ~via:[ ad "dest-ad"; hid "dest-host" ] in
  let sim = Sim.create () in
  let delivered = Deliveries.record sim in
  let node name routes locals =
    let env = Dip_core.Env.create ~name () in
    List.iter (fun (x, p) -> Router.add_route env.Dip_core.Env.xia x p) routes;
    List.iter (Router.add_local env.Dip_core.Env.xia) locals;
    Sim.add_node sim ~name (Dip_core.Engine.handler ~registry env)
  in
  let t = node "transit" [ (ad "dest-ad", 1) ] [] in
  let b = node "border" [ (hid "dest-host", 1) ] [ ad "dest-ad" ] in
  let h = node "host" [] [ hid "dest-host"; svc ] in
  Sim.connect sim (t, 1) (b, 0);
  Sim.connect sim (b, 1) (h, 0);
  Sim.inject sim ~at:0.0 ~node:t ~port:0
    (Dip_core.Realize.xia ~dag ~payload:"request" ());
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
      let d' = Xia_ref.of_wire (Dag.to_wire d) in
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
      match Xia_ref.decode_slice b ~pos ~len:(n - pos) with
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
      match Xia_ref.decode_slice b ~pos:pre ~len:(String.length wire + post) with
      | Ok (d', ptr', stop) ->
          ptr' = ptr
          && stop = pre + String.length wire
          && Dag.to_wire d' = Dag.to_wire d
      | Error _ -> false)

(* --- the in-place walk against the decoded reference --- *)

(* A random address over [pool], encoded as Dag.to_wire would but not
   validated: node [i]'s successors are a shuffled subset of the later
   nodes, to which the source usually adds the intent when it would
   otherwise be unreachable, and a list sometimes ends with an edge
   that goes backwards or past the intent. *)
let dag_wire_gen pool =
  QCheck.Gen.(
    let* n = int_range 1 (Array.length pool) in
    let succs i =
      let* js = shuffle_l (List.init (n - i) (fun k -> i + 1 + k)) in
      let* keep = list_repeat (n - i) bool in
      let* stray = int_bound 60 in
      let js = List.filteri (fun k _ -> List.nth keep k) js in
      return (if stray <= n + 1 then js @ [ stray ] else js)
    in
    let* nodes = list_repeat n (oneofa pool) in
    let* edges = flatten_l (List.init (n + 1) succs) in
    let* fix = int_bound 3 in
    let edges = Array.of_list edges in
    (match Dag.make ~nodes:(Array.of_list nodes) ~edges with
    | _ -> ()
    | exception Invalid_argument _ -> if fix > 0 then edges.(0) <- n :: edges.(0));
    let b = Buffer.create 128 in
    Buffer.add_uint8 b n;
    List.iter (fun x -> Buffer.add_string b (Xid.to_wire x)) nodes;
    Array.iter
      (fun js ->
        Buffer.add_uint8 b (List.length js);
        List.iter (Buffer.add_uint8 b) js)
      edges;
    return (n, Buffer.contents b))

let walk_pool = [| ad "a1"; ad "a2"; hid "h1"; hid "h2"; sid "s1"; cid "c1" |]

(* A case: the router's tables (per pool XID: 0 neither, 1 local, 2
   routed, 3 both; and its port), the slice's bytes (junk before, the
   pointer byte and DAG, possibly mangled or cut, junk after), where
   the target starts and which FN runs. *)
type walk_case = {
  roles : (int * int) array;
  pre : string;
  slice : string;
  misaligned : bool;
  intent : bool;
}

let walk_case_gen =
  QCheck.Gen.(
    let* roles = array_repeat (Array.length walk_pool) (pair (int_bound 3) (int_bound 300)) in
    let* n, dag = dag_wire_gen walk_pool in
    let* ptr = int_bound (n + 1) in
    let wire = String.make 1 (Char.chr ptr) ^ dag in
    let* mangle = int_bound 5 and* at = nat and* byte = int_bound 255 in
    let* post = string_size ~gen:char (int_bound 4) in
    let slice =
      match mangle with
      | 0 ->
          let b = Bytes.of_string wire in
          Bytes.set_uint8 b (at mod Bytes.length b) byte;
          Bytes.to_string b
      | 1 -> String.sub wire 0 (at mod (String.length wire + 1))
      | _ -> wire
    in
    let* pre = string_size ~gen:char (int_bound 3) in
    let* misaligned = bool and* intent = bool in
    (* An FN's target is at least one bit long. *)
    let slice = if slice ^ post = "" then "\x00" else slice ^ post in
    return { roles; pre; slice; misaligned; intent })

let walk_router roles =
  let r = Router.create () in
  Array.iteri
    (fun i (role, port) ->
      if role land 1 <> 0 then Router.add_local r walk_pool.(i);
      if role land 2 <> 0 then Router.add_route r walk_pool.(i) port)
    roles;
  r

let show_walk_case c =
  Printf.sprintf "roles=[%s] pre=%S slice=%S misaligned=%b intent=%b"
    (String.concat ";" (Array.to_list (Array.map (fun (r, p) -> Printf.sprintf "%d/%d" r p) c.roles)))
    c.pre c.slice c.misaligned c.intent

(* F_DAG or F_intent alone, through the engine, on the case's target;
   a misaligned target starts 4 bits into its first byte. The engine's
   verdict and the pointer byte after it must be the reference's: a
   drop for its Abort reason, F_DAG's route as the forwarding port,
   and a continue as no forwarding decision. *)
let prop_walk_matches_reference =
  QCheck.Test.make ~name:"xia: in-place walk = decode_slice + step" ~count:3000
    (QCheck.make ~print:show_walk_case walk_case_gen)
    (fun c ->
      let r = walk_router c.roles in
      let env = Dip_core.Env.create ~name:"r" () in
      Array.iteri
        (fun i (role, port) ->
          if role land 1 <> 0 then Router.add_local env.Dip_core.Env.xia walk_pool.(i);
          if role land 2 <> 0 then Router.add_route env.Dip_core.Env.xia walk_pool.(i) port)
        c.roles;
      let len = 8 * String.length c.slice in
      let loc = (8 * String.length c.pre) + if c.misaligned then 4 else 0 in
      let key = if c.intent then Dip_core.Opkey.F_intent else Dip_core.Opkey.F_dag in
      let fn = Dip_core.Fn.v ~loc ~len key in
      let locations =
        let b = Dip_bitbuf.Bitbuf.of_string (c.pre ^ c.slice ^ if c.misaligned then "\x00" else "") in
        Dip_bitbuf.Bitbuf.set_field b (Dip_bitbuf.Field.v ~off_bits:loc ~len_bits:len) c.slice;
        Dip_bitbuf.Bitbuf.to_string b
      in
      let pkt = Dip_core.Packet.build ~fns:[ fn ] ~locations ~payload:"" () in
      let target () =
        let view = Result.get_ok (Dip_core.Packet.parse pkt) in
        Dip_core.Packet.get_target view view.Dip_core.Packet.fns.(0)
      in
      let wire = target () in
      let b = Bytes.of_string wire and n = String.length wire in
      let verdict, _ = Dip_core.Engine.process ~registry env ~now:0.0 ~ingress:0 pkt in
      let ptr_after = if n > 0 then Char.code (target ()).[0] else -1 in
      let ptr_before = if n > 0 then Char.code wire.[0] else -1 in
      let no_decision = Dip_core.Engine.Dropped "no-forwarding-decision" in
      let expected, ptr =
        if c.intent then
          match Xia_ref.f_intent r b ~pos:0 ~len:n with
          | Error e -> (Dip_core.Engine.Dropped e, ptr_before)
          | Ok true -> (Dip_core.Engine.Delivered, ptr_before)
          | Ok false -> (no_decision, ptr_before)
        else
          match Xia_ref.f_dag r b ~pos:0 ~len:n with
          | Error e -> (Dip_core.Engine.Dropped e, ptr_before)
          | Ok (Some port, ptr) -> (Dip_core.Engine.Forwarded [ port ], ptr)
          | Ok (None, ptr) -> (no_decision, ptr)
      in
      (* Router.check also bounds a slice by the end of the bytes. *)
      let over = Router.check r b ~pos:0 ~len:(n + 5) in
      let over_ref =
        match Xia_ref.decode_slice b ~pos:0 ~len:(n + 5) with
        | Ok _ -> Router.Valid
        | Error "empty packet" -> Router.Empty
        | Error "bad pointer" -> Router.Bad_pointer
        | Error _ -> Router.Malformed
      in
      verdict = expected && ptr_after = ptr && over = over_ref)

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
      ( "walk",
        [ QCheck_alcotest.to_alcotest prop_walk_matches_reference ] );
      ( "end-to-end",
        [ Alcotest.test_case "three-router delivery" `Quick test_xia_end_to_end ] );
    ]

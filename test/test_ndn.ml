(* Tests for NDN over DIP: interests and data built by Realize and run
   through Engine.process on an Env whose name FIB holds the routes —
   the FIB/PIT/content-store semantics of paper §3 on the shared
   operation core. The prototype forwards on 32-bit hashed names
   (§4.1), so every route is registered under the full name. *)

open Dip_core
module Bitbuf = Dip_bitbuf.Bitbuf
module Name = Dip_tables.Name
module Name_fib = Dip_tables.Name_fib
module Sim = Dip_netsim.Sim

let n = Name.of_string
let registry = Ops.default_registry ()

let interest ?(payload = "") name = Realize.ndn_interest ~name:(n name) ~payload ()
let data name content = Realize.ndn_data ~name:(n name) ~content ()

(* The 32-bit name hash an FN-program's only FN targets. *)
let target_hash (view : Packet.view) =
  Int64.to_int32
    (Bitbuf.get_uint view.Packet.buf (Packet.locations_field view view.Packet.fns.(0)))

let parsed pkt =
  match Packet.parse pkt with Ok view -> view | Error e -> Alcotest.fail e

let key_name (view : Packet.view) = Opkey.name view.Packet.fns.(0).Fn.key

(* A router whose FIB sends each of [names] out of port 7. *)
let router ?cache_capacity ?interest_lifetime names =
  let env = Env.create ?cache_capacity ?interest_lifetime ~name:"r" () in
  List.iter (fun name -> Name_fib.insert env.Env.fib (n name) 7) names;
  env

(* Engine.process rewrites the packet (hop limit), so every call gets
   a freshly built one. *)
let process env ~now ~ingress pkt =
  fst (Engine.process ~registry env ~now ~ingress pkt)

let test_packet_interest_roundtrip () =
  let view = parsed (interest ~payload:"p" "/video/intro.mp4") in
  Alcotest.(check string) "F_FIB" "F_FIB" (key_name view);
  Alcotest.(check int32) "name hash"
    (Name.hash32 (n "/video/intro.mp4")) (target_hash view);
  Alcotest.(check string) "payload" "p" (Packet.payload view)

let test_packet_data_roundtrip () =
  let view = parsed (data "/a/b" "the content bytes") in
  Alcotest.(check string) "F_PIT" "F_PIT" (key_name view);
  Alcotest.(check int32) "name hash" (Name.hash32 (n "/a/b")) (target_hash view);
  Alcotest.(check string) "content" "the content bytes" (Packet.payload view)

let test_packet_decode_rejects () =
  let rejects label s =
    Alcotest.(check bool) label true
      (Result.is_error (Packet.parse (Bitbuf.of_string s)))
  in
  rejects "empty" "";
  let wire = Bitbuf.to_string (interest "/a") in
  rejects "truncated interest" (String.sub wire 0 (String.length wire - 1));
  match process (router [ "/a" ]) ~now:0.0 ~ingress:1 (Bitbuf.of_string "") with
  | Engine.Dropped _ -> ()
  | _ -> Alcotest.fail "the engine must drop what does not parse"

let test_packet_interest_padding_tolerated () =
  (* Interests padded to a wire size (Figure 2 workloads) still
     forward: the padding is payload. *)
  let padded = Fixtures.pad_to (interest "/f") 128 in
  Alcotest.(check int) "padded" 128 (Bitbuf.length padded);
  match process (router [ "/f" ]) ~now:0.0 ~ingress:1 padded with
  | Engine.Forwarded [ 7 ] -> ()
  | _ -> Alcotest.fail "padded interest must forward"

let test_forwarder_interest_fib () =
  match process (router [ "/video/intro.mp4" ]) ~now:0.0 ~ingress:1
          (interest "/video/intro.mp4")
  with
  | Engine.Forwarded [ 7 ] -> ()
  | _ -> Alcotest.fail "expected FIB forward to port 7"

let test_forwarder_interest_aggregation () =
  let r = router [ "/video/x" ] in
  (match process r ~now:0.0 ~ingress:1 (interest "/video/x") with
  | Engine.Forwarded _ -> ()
  | _ -> Alcotest.fail "first interest forwards");
  match process r ~now:0.1 ~ingress:2 (interest "/video/x") with
  | Engine.Quiet -> ()
  | _ -> Alcotest.fail "second interest must aggregate"

let test_forwarder_interest_no_route () =
  match process (router [ "/video/x" ]) ~now:0.0 ~ingress:1 (interest "/audio/x") with
  | Engine.Dropped "no-fib-entry" -> ()
  | _ -> Alcotest.fail "expected discard"

let test_forwarder_data_follows_pit () =
  let r = router [ "/video/y" ] in
  ignore (process r ~now:0.0 ~ingress:1 (interest "/video/y"));
  ignore (process r ~now:0.0 ~ingress:2 (interest "/video/y"));
  (match process r ~now:0.5 ~ingress:7 (data "/video/y" "bytes") with
  | Engine.Forwarded ports ->
      Alcotest.(check (list int)) "both requesters" [ 1; 2 ]
        (List.sort compare ports)
  | _ -> Alcotest.fail "data must follow PIT");
  (* PIT entry consumed: replayed data is unsolicited. *)
  match process r ~now:0.6 ~ingress:7 (data "/video/y" "bytes") with
  | Engine.Dropped "unsolicited-data" -> ()
  | _ -> Alcotest.fail "replayed data must be discarded"

let test_forwarder_pit_expiry () =
  let r = router ~interest_lifetime:1.0 [ "/video/z" ] in
  ignore (process r ~now:0.0 ~ingress:1 (interest "/video/z"));
  match process r ~now:5.0 ~ingress:7 (data "/video/z" "late") with
  | Engine.Dropped "unsolicited-data" -> ()
  | _ -> Alcotest.fail "expired PIT entry must not forward data"

let test_forwarder_cache_hit () =
  let r = router ~cache_capacity:8 [ "/video/cached" ] in
  ignore (process r ~now:0.0 ~ingress:1 (interest "/video/cached"));
  ignore (process r ~now:0.1 ~ingress:7 (data "/video/cached" "body"));
  (* Second interest is answered from the content store. *)
  match process r ~now:0.2 ~ingress:3 (interest "/video/cached") with
  | Engine.Responded reply ->
      let view = parsed reply in
      Alcotest.(check string) "reply is data" "F_PIT" (key_name view);
      Alcotest.(check string) "cached body" "body" (Packet.payload view)
  | _ -> Alcotest.fail "expected a content-store reply"

(* The content store is bounded: at capacity 1, caching a second
   name evicts the first, whose next interest goes back upstream. *)
let test_forwarder_cache_bounded () =
  let r = router ~cache_capacity:1 [ "/video/a"; "/video/b" ] in
  let fetch ~now name body =
    ignore (process r ~now ~ingress:1 (interest name));
    ignore (process r ~now ~ingress:7 (data name body))
  in
  fetch ~now:0.0 "/video/a" "A";
  fetch ~now:0.1 "/video/b" "B";
  (match process r ~now:0.2 ~ingress:3 (interest "/video/b") with
  | Engine.Responded _ -> ()
  | _ -> Alcotest.fail "the newest name must be cached");
  match process r ~now:0.3 ~ingress:3 (interest "/video/a") with
  | Engine.Forwarded [ 7 ] -> ()
  | _ -> Alcotest.fail "the evicted name must go back through the FIB"

let test_forwarder_no_cache_by_default () =
  (* The prototype has no content store (§4.1 fn. 2): after an
     interest/data exchange the next interest still goes upstream. *)
  let r = router [ "/video/n" ] in
  ignore (process r ~now:0.0 ~ingress:1 (interest "/video/n"));
  ignore (process r ~now:0.1 ~ingress:7 (data "/video/n" "body"));
  Alcotest.(check bool) "nothing cached" true
    (Fixtures.cache_find r (Name.hash32 (n "/video/n")) = None);
  match process r ~now:0.2 ~ingress:3 (interest "/video/n") with
  | Engine.Forwarded [ 7 ] -> ()
  | _ -> Alcotest.fail "without a content store the interest goes upstream"

(* End-to-end: consumer -- router -- producer over the simulator, the
   router a DIP node running Algorithm 1. *)
let test_ndn_end_to_end () =
  let sim = Sim.create () in
  let name = n "/video/intro.mp4" in
  let consumer_got = ref None in
  let consumer _sim ~now:_ ~ingress:_ pkt =
    match Packet.parse pkt with
    | Ok view when key_name view = "F_PIT" ->
        consumer_got := Some (target_hash view, Packet.payload view);
        [ Sim.Consume ]
    | _ -> [ Sim.Drop "unexpected" ]
  in
  (* The producer answers an interest for the name it serves, out of
     the port the interest came in on. *)
  let producer _sim ~now:_ ~ingress pkt =
    match Packet.parse pkt with
    | Ok view when Int32.equal (target_hash view) (Name.hash32 name) ->
        let content = "content-of:" ^ Name.to_string name in
        [ Sim.Forward (ingress, Realize.ndn_data ~name ~content ()) ]
    | _ -> [ Sim.Drop "unknown name" ]
  in
  let env = Env.create ~name:"router" () in
  Name_fib.insert env.Env.fib name 1;
  let c = Sim.add_node sim ~name:"consumer" consumer in
  let r = Sim.add_node sim ~name:"router" (Engine.handler ~registry env) in
  let p = Sim.add_node sim ~name:"producer" producer in
  Sim.connect sim (c, 0) (r, 0);
  Sim.connect sim (r, 1) (p, 0);
  (* The consumer sends an interest towards the router. *)
  Sim.inject sim ~at:0.0 ~node:r ~port:0 (Realize.ndn_interest ~name ~payload:"" ());
  Sim.run sim;
  match !consumer_got with
  | Some (hash, content) ->
      Alcotest.(check int32) "name" (Name.hash32 name) hash;
      Alcotest.(check string) "content" "content-of:/video/intro.mp4" content
  | None -> Alcotest.fail "consumer never received data"

(* Model-based property: drive a DIP router with a random
   interleaving of interests and data over a small name space and
   check every verdict against a reference PIT model (a map from
   name to the set of ports with a pending interest). *)
let prop_forwarder_matches_pit_model =
  let module SM = Map.Make (String) in
  QCheck.Test.make ~name:"ndn: forwarder agrees with a reference PIT model"
    ~count:150
    QCheck.(small_list (pair bool (pair (int_range 0 3) (int_range 0 4))))
    (fun ops ->
      (* The model does not track PIT expiry, so give entries a
         lifetime far beyond the simulated steps. *)
      let items = List.init 4 (Printf.sprintf "/m/item%d") in
      let r = router ~interest_lifetime:1e9 items in
      let model = ref SM.empty in
      let ok = ref true in
      List.iteri
        (fun step (is_interest, (name_ix, port)) ->
          let name = List.nth items name_ix in
          let now = float_of_int step in
          let pending = Option.value ~default:[] (SM.find_opt name !model) in
          if is_interest then begin
            match process r ~now ~ingress:port (interest name) with
            | Engine.Forwarded [ 7 ] ->
                if pending <> [] then ok := false
                else model := SM.add name [ port ] !model
            | Engine.Quiet ->
                if pending = [] then ok := false
                else if not (List.mem port pending) then
                  model := SM.add name (port :: pending) !model
            | _ -> ok := false
          end
          else begin
            match process r ~now ~ingress:7 (data name "b") with
            | Engine.Forwarded ports ->
                if List.sort compare ports <> List.sort compare pending
                   || pending = []
                then ok := false
                else model := SM.remove name !model
            | Engine.Dropped "unsolicited-data" ->
                if pending <> [] then ok := false
            | _ -> ok := false
          end)
        ops;
      !ok)

(* Any name and content survive construction: the FN targets the
   name's hash and the payload is the content. *)
let prop_packet_roundtrip =
  QCheck.Test.make ~name:"ndn: packet roundtrip" ~count:300
    QCheck.(
      pair bool
        (pair
           (small_list
              (string_gen_of_size (Gen.int_range 1 6) (Gen.char_range 'a' 'z')))
           small_string))
    (fun (is_interest, (comps, content)) ->
      QCheck.assume (comps <> [] && List.length comps < 200);
      let name = Name.of_components comps in
      let pkt =
        if is_interest then Realize.ndn_interest ~name ~payload:content ()
        else Realize.ndn_data ~name ~content ()
      in
      match Packet.parse pkt with
      | Ok view ->
          Int32.equal (target_hash view) (Name.hash32 name)
          && key_name view = (if is_interest then "F_FIB" else "F_PIT")
          && Packet.payload view = content
      | Error _ -> false)

let () =
  Alcotest.run "ndn"
    [
      ( "packet",
        [
          Alcotest.test_case "interest roundtrip" `Quick test_packet_interest_roundtrip;
          Alcotest.test_case "data roundtrip" `Quick test_packet_data_roundtrip;
          Alcotest.test_case "decode rejects" `Quick test_packet_decode_rejects;
          Alcotest.test_case "padding tolerated" `Quick test_packet_interest_padding_tolerated;
          QCheck_alcotest.to_alcotest prop_packet_roundtrip;
          QCheck_alcotest.to_alcotest prop_forwarder_matches_pit_model;
        ] );
      ( "forwarder",
        [
          Alcotest.test_case "interest via FIB" `Quick test_forwarder_interest_fib;
          Alcotest.test_case "interest aggregation" `Quick test_forwarder_interest_aggregation;
          Alcotest.test_case "interest no route" `Quick test_forwarder_interest_no_route;
          Alcotest.test_case "data follows PIT" `Quick test_forwarder_data_follows_pit;
          Alcotest.test_case "PIT expiry" `Quick test_forwarder_pit_expiry;
          Alcotest.test_case "cache hit" `Quick test_forwarder_cache_hit;
          Alcotest.test_case "cache bounded" `Quick test_forwarder_cache_bounded;
          Alcotest.test_case "no cache by default" `Quick test_forwarder_no_cache_by_default;
        ] );
      ( "end-to-end",
        [ Alcotest.test_case "consumer/router/producer" `Quick test_ndn_end_to_end ] );
    ]

(* Tests for the native NDN substrate: packet codec and the
   FIB/PIT/CS forwarder of paper §3. *)

open Dip_ndn
module Bitbuf = Dip_bitbuf.Bitbuf
module Name = Dip_tables.Name
module Sim = Dip_netsim.Sim

let n = Name.of_string

let test_packet_interest_roundtrip () =
  let p = Packet.interest ~nonce:42l (n "/video/intro.mp4") in
  match Packet.decode (Packet.encode p) with
  | Ok (Packet.Interest { name; nonce }) ->
      Alcotest.(check string) "name" "/video/intro.mp4" (Name.to_string name);
      Alcotest.(check int32) "nonce" 42l nonce
  | _ -> Alcotest.fail "roundtrip failed"

let test_packet_data_roundtrip () =
  let p = Packet.data (n "/a/b") "the content bytes" in
  match Packet.decode (Packet.encode p) with
  | Ok (Packet.Data { name; content }) ->
      Alcotest.(check string) "name" "/a/b" (Name.to_string name);
      Alcotest.(check string) "content" "the content bytes" content
  | _ -> Alcotest.fail "roundtrip failed"

let test_packet_decode_rejects () =
  let bad s = Packet.decode (Bitbuf.of_string s) in
  Alcotest.(check bool) "empty" true (bad "" = Error "empty packet");
  Alcotest.(check bool) "unknown type" true
    (match bad "\x07rest" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "truncated interest" true
    (match bad "\x01\x00\x00" with Error _ -> true | Ok _ -> false)

let test_packet_interest_padding_tolerated () =
  (* Interests padded to a wire size (Figure 2 workloads) must still
     decode. *)
  let p = Packet.encode (Packet.interest (n "/f")) in
  let padded = Dip_netsim.Workload.pad_to p 128 in
  match Packet.decode padded with
  | Ok (Packet.Interest { name; _ }) ->
      Alcotest.(check string) "name survives padding" "/f" (Name.to_string name)
  | _ -> Alcotest.fail "padded interest must decode"

let fwd ?cache_capacity () =
  let f = Forwarder.create ?cache_capacity () in
  Dip_tables.Name_fib.insert (Forwarder.fib f) (n "/video") 7;
  f

let test_forwarder_interest_fib () =
  let f = fwd () in
  let pkt = Packet.encode (Packet.interest (n "/video/intro.mp4")) in
  match Forwarder.process f ~now:0.0 ~ingress:1 pkt with
  | Forwarder.Forward [ 7 ] -> ()
  | _ -> Alcotest.fail "expected FIB forward to port 7"

let test_forwarder_interest_aggregation () =
  let f = fwd () in
  let pkt = Packet.encode (Packet.interest (n "/video/x")) in
  (match Forwarder.process f ~now:0.0 ~ingress:1 pkt with
  | Forwarder.Forward _ -> ()
  | _ -> Alcotest.fail "first interest forwards");
  match Forwarder.process f ~now:0.1 ~ingress:2 pkt with
  | Forwarder.Silent -> ()
  | _ -> Alcotest.fail "second interest must aggregate"

let test_forwarder_interest_no_route () =
  let f = fwd () in
  let pkt = Packet.encode (Packet.interest (n "/audio/x")) in
  match Forwarder.process f ~now:0.0 ~ingress:1 pkt with
  | Forwarder.Discard "no-fib-entry" -> ()
  | _ -> Alcotest.fail "expected discard"

let test_forwarder_data_follows_pit () =
  let f = fwd () in
  let name = n "/video/y" in
  let interest = Packet.encode (Packet.interest name) in
  ignore (Forwarder.process f ~now:0.0 ~ingress:1 interest);
  ignore (Forwarder.process f ~now:0.0 ~ingress:2 interest);
  let data = Packet.encode (Packet.data name "bytes") in
  (match Forwarder.process f ~now:0.5 ~ingress:7 data with
  | Forwarder.Forward ports ->
      Alcotest.(check (list int)) "both requesters" [ 1; 2 ]
        (List.sort compare ports)
  | _ -> Alcotest.fail "data must follow PIT");
  (* PIT entry consumed: replayed data is unsolicited. *)
  match Forwarder.process f ~now:0.6 ~ingress:7 data with
  | Forwarder.Discard "unsolicited-data" -> ()
  | _ -> Alcotest.fail "replayed data must be discarded"

let test_forwarder_pit_expiry () =
  let f = Forwarder.create ~interest_lifetime:1.0 () in
  Dip_tables.Name_fib.insert (Forwarder.fib f) (n "/video") 7;
  let name = n "/video/z" in
  ignore (Forwarder.process f ~now:0.0 ~ingress:1
            (Packet.encode (Packet.interest name)));
  match
    Forwarder.process f ~now:5.0 ~ingress:7
      (Packet.encode (Packet.data name "late"))
  with
  | Forwarder.Discard "unsolicited-data" -> ()
  | _ -> Alcotest.fail "expired PIT entry must not forward data"

let test_forwarder_cache_hit () =
  let f = fwd ~cache_capacity:8 () in
  Alcotest.(check bool) "cache on" true (Forwarder.cache_enabled f);
  let name = n "/video/cached" in
  ignore (Forwarder.process f ~now:0.0 ~ingress:1
            (Packet.encode (Packet.interest name)));
  ignore (Forwarder.process f ~now:0.1 ~ingress:7
            (Packet.encode (Packet.data name "body")));
  (* Second interest is answered from the content store. *)
  match Forwarder.process f ~now:0.2 ~ingress:3
          (Packet.encode (Packet.interest name))
  with
  | Forwarder.Reply pkt -> (
      match Packet.decode pkt with
      | Ok (Packet.Data { content; _ }) ->
          Alcotest.(check string) "cached body" "body" content
      | _ -> Alcotest.fail "reply must be data")
  | _ -> Alcotest.fail "expected a content-store reply"

(* The content store is bounded: at capacity 1, caching a second
   name evicts the first, whose next interest goes back upstream. *)
let test_forwarder_cache_bounded () =
  let f = fwd ~cache_capacity:1 () in
  let fetch ~now name body =
    ignore (Forwarder.process f ~now ~ingress:1 (Packet.encode (Packet.interest name)));
    ignore (Forwarder.process f ~now ~ingress:7 (Packet.encode (Packet.data name body)))
  in
  let a = n "/video/a" and b = n "/video/b" in
  fetch ~now:0.0 a "A";
  fetch ~now:0.1 b "B";
  (match Forwarder.process f ~now:0.2 ~ingress:3 (Packet.encode (Packet.interest b)) with
  | Forwarder.Reply _ -> ()
  | _ -> Alcotest.fail "the newest name must be cached");
  match Forwarder.process f ~now:0.3 ~ingress:3 (Packet.encode (Packet.interest a)) with
  | Forwarder.Forward [ 7 ] -> ()
  | _ -> Alcotest.fail "the evicted name must go back through the FIB"

let test_forwarder_no_cache_by_default () =
  let f = fwd () in
  Alcotest.(check bool) "prototype default: no cache (4.1 fn.2)" false
    (Forwarder.cache_enabled f)

(* End-to-end: consumer -- router -- producer over the simulator. *)
let test_ndn_end_to_end () =
  let sim = Sim.create () in
  let consumer_got = ref None in
  let consumer _sim ~now:_ ~ingress:_ pkt =
    match Packet.decode pkt with
    | Ok (Packet.Data { name; content }) ->
        consumer_got := Some (Name.to_string name, content);
        [ Sim.Consume ]
    | _ -> [ Sim.Drop "unexpected" ]
  in
  let router = Forwarder.create () in
  let producer =
    Forwarder.producer_handler ~prefix:(n "/video")
      ~content:(fun name -> Some ("content-of:" ^ Name.to_string name))
  in
  let c = Sim.add_node sim ~name:"consumer" consumer in
  let r = Sim.add_node sim ~name:"router" (Forwarder.handler router) in
  let p = Sim.add_node sim ~name:"producer" producer in
  Sim.connect sim (c, 0) (r, 0);
  Sim.connect sim (r, 1) (p, 0);
  Dip_tables.Name_fib.insert (Forwarder.fib router) (n "/video") 1;
  (* The consumer sends an interest towards the router. *)
  Sim.inject sim ~at:0.0 ~node:r ~port:0
    (Packet.encode (Packet.interest (n "/video/intro.mp4")));
  Sim.run sim;
  (match !consumer_got with
  | Some (name, content) ->
      Alcotest.(check string) "name" "/video/intro.mp4" name;
      Alcotest.(check string) "content" "content-of:/video/intro.mp4" content
  | None -> Alcotest.fail "consumer never received data");
  ignore (c, p)

(* Model-based property: drive the forwarder with a random
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
      let f = Forwarder.create ~interest_lifetime:1e9 () in
      Dip_tables.Name_fib.insert (Forwarder.fib f) (n "/m") 9;
      let model = ref SM.empty in
      let ok = ref true in
      List.iteri
        (fun step (is_interest, (name_ix, port)) ->
          let name = n (Printf.sprintf "/m/item%d" name_ix) in
          let key = Name.to_string name in
          let now = float_of_int step in
          if is_interest then begin
            let pkt = Packet.encode (Packet.interest name) in
            let pending = Option.value ~default:[] (SM.find_opt key !model) in
            match Forwarder.process f ~now ~ingress:port pkt with
            | Forwarder.Forward [ 9 ] ->
                if pending <> [] then ok := false
                else model := SM.add key [ port ] !model
            | Forwarder.Silent ->
                if pending = [] then ok := false
                else if not (List.mem port pending) then
                  model := SM.add key (port :: pending) !model
            | _ -> ok := false
          end
          else begin
            let pkt = Packet.encode (Packet.data name "b") in
            let pending = Option.value ~default:[] (SM.find_opt key !model) in
            match Forwarder.process f ~now ~ingress:9 pkt with
            | Forwarder.Forward ports ->
                if List.sort compare ports <> List.sort compare pending
                   || pending = []
                then ok := false
                else model := SM.remove key !model
            | Forwarder.Discard "unsolicited-data" ->
                if pending <> [] then ok := false
            | _ -> ok := false
          end)
        ops;
      !ok)

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
      let p =
        if is_interest then Packet.interest name else Packet.data name content
      in
      match Packet.decode (Packet.encode p) with
      | Ok p' -> p = p'
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

(* Tests for the fault-injection layer (Dip_netsim.Faults) and the
   reliable host pair (Dip_core.Host.Reliable) that recovers from it,
   including the canned chaos experiment (Dip_core.Chaos). *)

open Dip_netsim
module Bitbuf = Dip_bitbuf.Bitbuf
module Ipaddr = Dip_tables.Ipaddr
module Reliable = Dip_core.Host.Reliable
module Chaos = Dip_core.Chaos

let packet s = Bitbuf.of_string s

let relay_handler _sim ~now:_ ~ingress pkt =
  [ Sim.Forward ((if ingress = 0 then 1 else 0), pkt) ]

let consume_handler _sim ~now:_ ~ingress:_ _pkt = [ Sim.Consume ]

(* A relay [r] feeding a consumer [d] over one faulted link. *)
let relay_pair () =
  let sim = Sim.create () in
  let r = Sim.add_node sim ~name:"r" relay_handler in
  let d = Sim.add_node sim ~name:"d" consume_handler in
  Sim.connect sim ~latency:1e-3 (r, 1) (d, 0);
  (sim, r, d)

(* --- Fault kinds in isolation --- *)

let test_drop_all () =
  let sim, r, _ = relay_pair () in
  let delivered = Deliveries.record sim in
  let faults = Faults.attach ~seed:1L sim in
  Faults.all_links faults (Faults.spec ~drop:1.0 ());
  for i = 0 to 9 do
    Sim.inject sim ~at:(0.001 *. float_of_int i) ~node:r ~port:0 (packet "x")
  done;
  Sim.run sim;
  Alcotest.(check int) "nothing delivered" 0 (List.length (delivered ()));
  Alcotest.(check (list (pair string int))) "all counted" [ ("drop", 10) ]
    (Faults.counts faults);
  Alcotest.(check int) "sim counter mirrors" 10
    (Stats.Counters.get (Sim.counters sim) "sim.fault.drop")

let test_duplicate_all () =
  let sim, r, d = relay_pair () in
  let delivered = Deliveries.record sim in
  let faults = Faults.attach ~seed:1L sim in
  Faults.all_links faults (Faults.spec ~duplicate:1.0 ());
  for i = 0 to 4 do
    Sim.inject sim ~at:(0.001 *. float_of_int i) ~node:r ~port:0 (packet "x")
  done;
  Sim.run sim;
  Alcotest.(check int) "every packet doubled" 10
    (List.length (delivered ()));
  Alcotest.(check bool) "all at d" true
    (List.for_all (fun (n, _, _) -> n = d) (delivered ()));
  Alcotest.(check (option int)) "duplicates counted" (Some 5)
    (List.assoc_opt "duplicate" (Faults.counts faults))

let test_corrupt_all () =
  let sim, r, _ = relay_pair () in
  let delivered = Deliveries.record sim in
  let faults = Faults.attach ~seed:1L sim in
  Faults.all_links faults (Faults.spec ~corrupt:1.0 ());
  let original = "corrupt-me" in
  Sim.inject sim ~at:0.0 ~node:r ~port:0 (packet original);
  Sim.run sim;
  (match delivered () with
  | [ (_, _, pkt) ] ->
      let s = Bitbuf.to_string pkt in
      Alcotest.(check int) "length unchanged" (String.length original)
        (String.length s);
      Alcotest.(check bool) "bytes damaged in flight" true (s <> original)
  | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l));
  Alcotest.(check (option int)) "corruption counted" (Some 1)
    (List.assoc_opt "corrupt" (Faults.counts faults))

let test_link_down_window () =
  let sim, r, _ = relay_pair () in
  let delivered = Deliveries.record sim in
  let faults = Faults.attach ~seed:1L sim in
  Faults.link_down faults (r, 1) ~from_:0.0 ~until:0.1;
  Sim.inject sim ~at:0.05 ~node:r ~port:0 (packet "lost");
  Sim.inject sim ~at:0.2 ~node:r ~port:0 (packet "alive");
  Sim.run sim;
  (match delivered () with
  | [ (_, _, pkt) ] ->
      Alcotest.(check string) "only the post-window packet" "alive"
        (Bitbuf.to_string pkt)
  | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l));
  Alcotest.(check (option int)) "down-window drop counted" (Some 1)
    (List.assoc_opt "link-down" (Faults.counts faults))

let test_node_crash_and_restart () =
  let sim, r, _ = relay_pair () in
  let delivered = Deliveries.record sim in
  let faults = Faults.attach ~seed:1L sim in
  Faults.crash_node faults r ~at:0.0 ~until:1.0;
  Sim.inject sim ~at:0.5 ~node:r ~port:0 (packet "blackholed");
  Sim.inject sim ~at:1.5 ~node:r ~port:0 (packet "recovered");
  Sim.run sim;
  (match delivered () with
  | [ (_, _, pkt) ] ->
      Alcotest.(check string) "handler restored after the window"
        "recovered" (Bitbuf.to_string pkt)
  | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l));
  Alcotest.(check (option int)) "crash drop counted" (Some 1)
    (List.assoc_opt "node-crash" (Faults.counts faults));
  Alcotest.(check int) "drop reason at the node" 1
    (Stats.Counters.get (Sim.counters sim) "r.drop.node-crash")

(* Regression: overlapping crash windows. The second window used to
   capture the first window's *drop handler* as the "original" and
   reinstall it at its end, leaving the node black-holed forever. The
   node must be down for exactly the union of its windows. *)
let test_crash_overlapping_windows () =
  let sim, r, _ = relay_pair () in
  let delivered = Deliveries.record sim in
  let faults = Faults.attach ~seed:1L sim in
  Faults.crash_node faults r ~at:0.0 ~until:1.0;
  Faults.crash_node faults r ~at:0.5 ~until:1.5;
  Sim.inject sim ~at:1.2 ~node:r ~port:0 (packet "in-union");
  Sim.inject sim ~at:2.0 ~node:r ~port:0 (packet "after-union");
  Sim.run sim;
  (match delivered () with
  | [ (_, _, pkt) ] ->
      Alcotest.(check string) "true handler restored at union end"
        "after-union" (Bitbuf.to_string pkt)
  | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l));
  Alcotest.(check (option int)) "in-union arrival black-holed" (Some 1)
    (List.assoc_opt "node-crash" (Faults.counts faults))

(* Regression: a window nested inside another must not restore the
   handler when the inner window ends. *)
let test_crash_nested_windows () =
  let sim, r, _ = relay_pair () in
  let delivered = Deliveries.record sim in
  let faults = Faults.attach ~seed:1L sim in
  Faults.crash_node faults r ~at:0.0 ~until:2.0;
  Faults.crash_node faults r ~at:0.5 ~until:1.0;
  Sim.inject sim ~at:1.5 ~node:r ~port:0 (packet "still-down");
  Sim.inject sim ~at:2.5 ~node:r ~port:0 (packet "back-up");
  Sim.run sim;
  match delivered () with
  | [ (_, _, pkt) ] ->
      Alcotest.(check string) "outer window governs" "back-up"
        (Bitbuf.to_string pkt)
  | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l)

(* --- Integrity check at the reliable endpoints --- *)

let test_corruption_detected_not_delivered () =
  (* Every transmission (data and ACK) is corrupted: nothing may be
     delivered as valid data, and at least some corruptions must be
     caught by the CRC specifically (others land in the basic header
     and fail parsing instead — also a drop, never a delivery). *)
  let sim = Sim.create () in
  let sender =
    Reliable.add_sender
      ~config:{ Reliable.default_config with max_retries = 2 }
      sim ~name:"s" ~seed:9L
      ~src:(Ipaddr.V4.of_string "192.168.0.1")
      ~dst:(Ipaddr.V4.of_string "10.0.0.1")
      ~out_port:0
  in
  let recv, recv_node = Reliable.add_receiver sim ~name:"d" in
  Sim.connect sim ~latency:1e-3 (Reliable.sender_node sender, 0) (recv_node, 0);
  let faults = Faults.attach ~seed:9L sim in
  Faults.all_links faults (Faults.spec ~corrupt:1.0 ());
  for i = 0 to 2 do
    Reliable.send sender ~at:(0.001 *. float_of_int i)
      ~payload:(Printf.sprintf "payload-%d" i)
  done;
  Sim.run sim;
  let ss = Reliable.sender_stats sender in
  Alcotest.(check int) "nothing delivered" 0 (Reliable.delivered recv);
  Alcotest.(check int) "every sequence abandoned" 3 ss.Reliable.gave_up;
  Alcotest.(check bool) "CRC caught corruptions" true
    (Reliable.rejected recv >= 1);
  Alcotest.(check int) "integrity drops counted" (Reliable.rejected recv)
    (Stats.Counters.get (Sim.counters sim)
       ("d.drop." ^ Dip_core.Errors.integrity_reason))

(* --- End-to-end recovery and determinism (via Chaos) --- *)

let chaos_cfg =
  {
    Chaos.default with
    Chaos.packets = 80;
    seed = 7L;
    spec = Faults.spec ~drop:0.05 ~corrupt:0.03 ~duplicate:0.03 ();
    flap = Some (0.2, 0.3);
  }

let test_reliable_full_recovery () =
  let r = Chaos.run chaos_cfg in
  Alcotest.(check int) "all unique payloads delivered" r.Chaos.sent
    r.Chaos.delivered;
  Alcotest.(check int) "every fate resolved" 0 r.Chaos.in_flight;
  Alcotest.(check bool) "recovery cost extra transmissions" true
    (r.Chaos.transmissions > r.Chaos.sent);
  List.iter
    (fun kind ->
      Alcotest.(check bool) (kind ^ " injected at least once") true
        (match List.assoc_opt kind r.Chaos.faults with
        | Some n -> n >= 1
        | None -> false))
    [ "drop"; "corrupt"; "duplicate"; "link-down" ]

(* The whole report reproduces from the seed: deliveries with their
   times, faults by kind, simulator counters and custody totals. *)
let test_same_seed_same_schedule () =
  let a = Chaos.run chaos_cfg in
  let b = Chaos.run chaos_cfg in
  Alcotest.(check bool) "faults injected" true (a.Chaos.faults <> []);
  Alcotest.(check bool) "reports identical" true (a = b);
  let c = Chaos.run { chaos_cfg with Chaos.seed = 8L } in
  Alcotest.(check bool) "a different seed changes the report" true (a <> c)

let test_no_retransmit_loses_packets () =
  let r =
    Chaos.run
      {
        chaos_cfg with
        Chaos.reliable = { Reliable.default_config with max_retries = 0 };
      }
  in
  Alcotest.(check bool) "losses stick without retransmission" true
    (r.Chaos.delivered < r.Chaos.sent);
  Alcotest.(check int) "one transmission per payload" r.Chaos.sent
    r.Chaos.transmissions

(* --- Retransmit timer regressions --- *)

let reliable_pair ?config ?custody () =
  let sim = Sim.create () in
  let sender =
    Reliable.add_sender ?config ?custody sim ~name:"s" ~seed:5L
      ~src:(Ipaddr.V4.of_string "192.168.0.1")
      ~dst:(Ipaddr.V4.of_string "10.0.0.1")
      ~out_port:0
  in
  let recv, recv_node = Reliable.add_receiver sim ~name:"d" in
  Sim.connect sim ~latency:1e-3 (Reliable.sender_node sender, 0) (recv_node, 0);
  (sim, sender, recv)

(* Regression: the retry timer used to rely on the *handler* to
   re-arm. If the self-injected retransmission never reached the
   handler — here, a crash window over the sender swallows it — the
   sequence wedged in [pending] forever: never retried, never
   abandoned. The timer must re-arm itself. *)
let test_retransmit_survives_sender_crash () =
  let cfg = { Reliable.default_config with Reliable.max_jitter = 0.0 } in
  let sim, sender, recv = reliable_pair ~config:cfg () in
  let faults = Faults.attach ~seed:2L sim in
  (* t=0 transmission dies on a down link; the t=0.05 retransmit
     self-injection is black-holed by the crash before the handler
     can re-arm; recovery must still happen at t=0.15. *)
  Faults.link_down faults
    (Reliable.sender_node sender, 0)
    ~from_:0.0 ~until:0.02;
  Faults.crash_node faults (Reliable.sender_node sender) ~at:0.03 ~until:0.08;
  Reliable.send sender ~at:0.0 ~payload:"stubborn";
  Sim.run sim;
  let ss = Reliable.sender_stats sender in
  Alcotest.(check int) "delivered despite swallowed retransmit" 1
    (Reliable.delivered recv);
  Alcotest.(check int) "acked" 1 ss.Reliable.acked;
  Alcotest.(check int) "nothing wedged in flight" 0 ss.Reliable.in_flight;
  Alcotest.(check int) "nothing abandoned" 0 ss.Reliable.gave_up

let test_rto_max_clamps_backoff () =
  let recover cfg =
    let sim, sender, recv = reliable_pair ~config:cfg () in
    let faults = Faults.attach ~seed:3L sim in
    Faults.link_down faults
      (Reliable.sender_node sender, 0)
      ~from_:0.0 ~until:0.18;
    Reliable.send sender ~at:0.0 ~payload:"p";
    Sim.run sim;
    Alcotest.(check int) "delivered" 1 (Reliable.delivered recv);
    match Reliable.deliveries recv with
    | [ (_, t) ] -> t
    | _ -> Alcotest.fail "expected exactly one delivery"
  in
  let base = { Reliable.default_config with Reliable.max_jitter = 0.0 } in
  (* Unclamped retries at 0.05/0.15/0.35 recover at ~0.35; clamping
     to rto keeps retrying every 50 ms and recovers at ~0.20. *)
  let unclamped = recover base in
  let clamped = recover { base with Reliable.rto_max = 0.05 } in
  Alcotest.(check bool) "clamped recovers sooner" true (clamped < unclamped);
  Alcotest.(check bool) "clamped retries stay at rto" true (clamped < 0.25);
  Alcotest.(check bool) "unclamped backoff overshoots" true (unclamped > 0.3)

let test_rto_max_validated () =
  let sim = Sim.create () in
  Alcotest.check_raises "rto_max below rto rejected"
    (Invalid_argument "Reliable: rto_max must be >= rto") (fun () ->
      ignore
        (Reliable.add_sender
           ~config:{ Reliable.default_config with Reliable.rto_max = 0.01 }
           sim ~name:"s" ~seed:1L
           ~src:(Ipaddr.V4.of_string "192.168.0.1")
           ~dst:(Ipaddr.V4.of_string "10.0.0.1")
           ~out_port:0))

(* --- Custody transfer (disruption tolerance) --- *)

module Custody = Dip_core.Custody

let custody_cfg =
  {
    Chaos.default with
    Chaos.packets = 20;
    seed = 11L;
    schedule = [ (0.0, 15.0) ];
    custody = Some Custody.default_config;
  }

let test_custody_rides_out_long_outage () =
  (* The e2e retry budget (8 retries, backoff 2 from 50 ms) is spent
     after ~12.8 s, so a 15 s outage defeats pure end-to-end
     recovery... *)
  let baseline = Chaos.run { custody_cfg with Chaos.custody = None } in
  Alcotest.(check int) "baseline delivers nothing" 0 baseline.Chaos.delivered;
  Alcotest.(check int) "baseline abandons everything" baseline.Chaos.sent
    baseline.Chaos.gave_up;
  (* ...while custodians hold the bundles and replay them on link-up. *)
  let r = Chaos.run custody_cfg in
  Alcotest.(check int) "custody delivers everything" r.Chaos.sent
    r.Chaos.delivered;
  Alcotest.(check int) "sender handed every bundle off" r.Chaos.sent
    r.Chaos.custodied;
  Alcotest.(check int) "every fate resolved" 0 r.Chaos.in_flight;
  Alcotest.(check bool) "custody was taken" true
    (List.assoc "take" r.Chaos.custody > 0);
  Alcotest.(check int) "no copies stranded after drain" 0
    (List.assoc "held" r.Chaos.custody);
  Alcotest.(check bool) "latency reflects the outage, not a timeout" true
    (r.Chaos.latency_p99 > 10.0)

let test_custody_deterministic () =
  let a = Chaos.run custody_cfg in
  let b = Chaos.run custody_cfg in
  Alcotest.(check bool) "reports identical" true (a = b)

let test_custody_survives_lossy_acks () =
  (* Random drops can eat custody ACKs; the periodic replay sweep
     must still converge on full delivery with nothing stranded. *)
  let r =
    Chaos.run
      {
        custody_cfg with
        Chaos.packets = 10;
        spec = Faults.spec ~drop:0.2 ();
        schedule = [ (0.0, 5.0) ];
      }
  in
  Alcotest.(check int) "all delivered despite losses" r.Chaos.sent
    r.Chaos.delivered;
  Alcotest.(check int) "no copies stranded" 0 (List.assoc "held" r.Chaos.custody)

(* A seeded satellite-pass contact plan (a 0.1 s contact every 20 s)
   strands most of 60 bundles between passes: the end-to-end baseline
   delivers under half, the custodians at least 99%, with nothing held
   after the drain, each store within 3x its capacity, and the same
   delivery order on a rerun. *)
let test_custody_satellite_passes () =
  let cfg =
    {
      Chaos.default with
      Chaos.packets = 60;
      schedule =
        Workload.satellite_passes ~seed:42L ~period:20.0 ~pass:0.1 ~horizon:45.0 ();
      custody = Some { Custody.default_config with Custody.retry_until = 105.0 };
    }
  in
  let e2e = Chaos.run { cfg with Chaos.custody = None } in
  let r = Chaos.run cfg in
  Alcotest.(check bool)
    (Printf.sprintf "e2e delivers under half (%d/%d)" e2e.Chaos.delivered e2e.Chaos.sent)
    true (e2e.Chaos.delivery_rate < 0.5);
  Alcotest.(check bool)
    (Printf.sprintf "custody delivers >= 99%% (%d/%d)" r.Chaos.delivered r.Chaos.sent)
    true (r.Chaos.delivery_rate >= 0.99);
  Alcotest.(check int) "nothing held after the drain" 0 (List.assoc "held" r.Chaos.custody);
  Alcotest.(check bool) "store high-water within 3x capacity" true
    (List.assoc "high-water" r.Chaos.custody <= 3 * Custody.default_config.Custody.capacity);
  Alcotest.(check bool) "rerun delivers in the same order" true
    ((Chaos.run cfg).Chaos.deliveries = r.Chaos.deliveries)

(* The receiver keeps every first delivery for its life, unboxed: a
   duplicate of each of 300 bundles is re-ACKed, not redelivered, the
   deliveries come back in delivery order, and the whole record costs
   at most 10 words per bundle (a boxed table and (seq, time) list
   cost about 16). *)
let test_receiver_record () =
  let sim, sender, recv = reliable_pair () in
  let faults = Faults.attach ~seed:4L sim in
  Faults.all_links faults (Faults.spec ~duplicate:1.0 ());
  let n = 300 in
  for i = 0 to n - 1 do
    Reliable.send sender ~at:(1e-3 *. float_of_int i) ~payload:(string_of_int i)
  done;
  Sim.run sim;
  Alcotest.(check int) "every bundle delivered once" n (Reliable.delivered recv);
  Alcotest.(check bool) "duplicates counted" true (Reliable.duplicates recv >= n);
  let d = Reliable.deliveries recv in
  Alcotest.(check int) "one record per bundle" n
    (List.length (List.sort_uniq compare (List.map fst d)));
  Alcotest.(check bool) "in delivery order" true
    (List.for_all2 (fun (_, a) (_, b) -> a <= b)
       (List.filteri (fun i _ -> i < n - 1) d) (List.tl d));
  let words = Obj.reachable_words (Obj.repr recv) in
  Alcotest.(check bool)
    (Printf.sprintf "%d words for %d bundles" words n)
    true (words <= 10 * n)

(* --- The wire: the in-place endpoints against their oracles --- *)

(* Host.Reliable's verdict on [p] in test/reliable_ref.ml's shape,
   every field read through the endpoints' own accessors. *)
let observe p : Reliable_ref.result =
  let frame p =
    {
      Reliable_ref.f_dst = Reliable.dst p;
      f_src = Reliable.src p;
      seq = Reliable.seq p;
      custody = (if Reliable.custody_requested p then Some (Reliable.bundle p) else None);
    }
  in
  match Reliable.classify p with
  | Reliable.Data -> `Data (frame p)
  | Reliable.Ack -> `Ack (frame p)
  | Reliable.Cust_ack -> `Cust_ack (Reliable.bundle p)
  | Reliable.Other -> `Other
  | Reliable.Corrupt -> `Corrupt
  | Reliable.Invalid e -> `Invalid e

let print_packet p = Dip_stdext.Hex.encode (Bitbuf.to_string p)
let gen_payload = QCheck.Gen.(string_size (int_bound 40))

let gen_built next_header =
  QCheck.Gen.(
    map4
      (fun custody (dst, src) seq payload ->
        Reliable_ref.build ~custody ~next_header ~dst ~src ~seq ~payload ())
      bool (pair int32 int32) int32 gen_payload)

(* Valid data, ACK and custody-ACK packets; packets whose locations
   are too short for their next header; data with a foreign next
   header. *)
let gen_wire =
  let open QCheck.Gen in
  frequency
    [
      (4, gen_built Reliable_ref.data_next_header);
      (2, gen_built Reliable_ref.ack_next_header);
      (1, map (fun bundle -> Reliable_ref.build_custody_ack ~bundle) int32);
      ( 1,
        map3
          (fun next_header locations payload ->
            Dip_core.Packet.build ~next_header ~fns:[] ~locations ~payload ())
          (oneofl [ 0xFB; 0xFC; 0xFD ])
          (string_size (int_bound 20))
          gen_payload );
      ( 1,
        map2
          (fun nh p ->
            Bitbuf.set_uint8 p 0 nh;
            p)
          (int_bound 0xFA)
          (gen_built Reliable_ref.data_next_header) );
    ]

(* Then left whole, cut short, or one bit flipped anywhere or past
   the basic header. *)
let gen_mutated =
  QCheck.Gen.(
    map2
      (fun p (m, a) ->
        let n = Bitbuf.length p in
        let flip pos =
          let q = Bitbuf.copy p in
          Bitbuf.set_uint8 q pos (Bitbuf.get_uint8 q pos lxor (1 lsl (a mod 8)));
          q
        in
        match m with
        | 0 -> p
        | 1 -> Bitbuf.of_string (Bitbuf.sub_string p ~pos:0 ~len:(a mod (n + 1)))
        | 2 -> flip (a mod n)
        | _ -> flip (6 + (a mod (n - 6))))
      gen_wire
      (pair (int_bound 3) nat))

let prop_classify_oracle =
  QCheck.Test.make ~name:"in-place classify = Packet.parse classify" ~count:3000
    (QCheck.make ~print:print_packet gen_mutated)
    (fun p -> observe p = Reliable_ref.classify p)

(* Several packets from one template: each is the one Packet.build
   assembles, and so are its receiver ACK and its custody ACK. *)
let prop_templates_built =
  QCheck.Test.make ~name:"template packets = Packet.build packets" ~count:300
    QCheck.(
      triple bool (pair int32 int32)
        (small_list (pair int32 (string_gen_of_size (Gen.int_bound 40) Gen.char))))
    (fun (custody, (dst, src), packets) ->
      let tpl = Reliable.data_template ~custody ~dst ~src in
      List.for_all
        (fun (seq, payload) ->
          let d = Reliable.data tpl ~seq ~payload in
          Bitbuf.equal d
            (Reliable_ref.build ~custody ~next_header:Reliable_ref.data_next_header ~dst
               ~src ~seq ~payload ())
          && Bitbuf.equal (Reliable.ack_of d)
               (Reliable_ref.build ~next_header:Reliable_ref.ack_next_header ~dst:src
                  ~src:dst ~seq ~payload:"" ())
          && Bitbuf.equal
               (Dip_core.Custody.build_ack ~bundle:seq)
               (Reliable_ref.build_custody_ack ~bundle:seq))
        packets)

(* Raw headers: any next header, an FN count that may disagree with
   the triples that follow, any locations length, triples with any
   location, zero or non-zero lengths and known or unknown keys
   (host bit set or not), then a tail; cut short as often. *)
let gen_raw =
  let open QCheck.Gen in
  let triple_gen =
    triple (int_bound 300) (int_bound 80)
      (map2 (fun k host -> if host then k lor 0x8000 else k) (int_bound 20) bool)
  in
  map4
    (fun (nh, skew) (loc_len, par) triples (tail, cut) ->
      let b = Buffer.create 64 in
      Buffer.add_uint8 b nh;
      Buffer.add_uint8 b (max 0 (List.length triples + skew));
      Buffer.add_uint8 b 64;
      Buffer.add_uint16_be b ((loc_len lsl 1) lor par);
      Buffer.add_uint8 b 0;
      List.iter
        (fun (loc, len, key) ->
          Buffer.add_uint16_be b loc;
          Buffer.add_uint16_be b len;
          Buffer.add_uint16_be b key)
        triples;
      Buffer.add_string b tail;
      let s = Buffer.contents b in
      Bitbuf.of_string
        (match cut with Some c -> String.sub s 0 (c mod (String.length s + 1)) | None -> s))
    (pair (int_bound 255) (oneofl [ 0; 0; 0; -1; 1 ]))
    (pair (int_bound 40) (int_bound 1))
    (list_size (int_bound 5) triple_gen)
    (pair (string_size (int_bound 40)) (opt nat))

let prop_check_parse =
  QCheck.Test.make ~name:"Packet.check = Packet.parse's error" ~count:3000
    (QCheck.make ~print:print_packet QCheck.Gen.(oneof [ gen_raw; gen_mutated ]))
    (fun p ->
      Dip_core.Packet.check p
      = match Dip_core.Packet.parse p with Ok _ -> None | Error e -> Some e)

(* --- Allocation --- *)

(* One packet bouncing between two nodes, as test_netsim's ping-pong,
   with and without a fault layer whose spec only drops (at a rate
   that never fires here) over a link with down windows that never
   cover it. What a transmission costs is the growth between a run
   of [limit] arrivals and one of twice as many: the windows' pending
   end timers cost a one-off 2 words at [~until]. *)
let ping_pong_words ~faulty ~limit =
  let sim = Sim.create () in
  let pkt = Bitbuf.create 64 in
  let bounce = [ Sim.Forward (0, pkt) ] and stop = [ Sim.Consume ] in
  let arrivals = ref 0 in
  let handler _sim ~now:_ ~ingress:_ _ =
    incr arrivals;
    if !arrivals < limit then bounce else stop
  in
  let a = Sim.add_node sim ~name:"a" handler in
  let b = Sim.add_node sim ~name:"b" handler in
  Sim.connect sim (a, 0) (b, 0);
  if faulty then begin
    let faults = Faults.attach ~seed:3L sim in
    Faults.all_links faults (Faults.spec ~drop:1e-12 ());
    Faults.link_down faults (a, 0) ~from_:1e3 ~until:2e3;
    Faults.link_down faults (a, 0) ~from_:3e3 ~until:4e3
  end;
  Sim.inject sim ~at:0.0 ~node:a ~port:0 pkt;
  let w0 = Gc.minor_words () in
  Sim.run ~until:1.0 sim;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "arrivals" limit !arrivals;
  words

let test_drop_only_alloc () =
  let per_transmission ~faulty =
    (ping_pong_words ~faulty ~limit:20_000 -. ping_pong_words ~faulty ~limit:10_000)
    /. 10_000.0
  in
  Alcotest.(check (float 0.0)) "words per transmission a drop-only spec adds" 0.0
    (per_transmission ~faulty:true -. per_transmission ~faulty:false)

(* The benchmark's dtn-custody at its reduced scale: a sender, five
   custodians and a receiver, 1% loss on every link and satellite
   passes on the middle one, 400 bundles. The cap is the run's total,
   measured at the release build on OCaml 5.1 (exact: minor words do
   not vary between runs), so a rise of one word fails; a fall is
   kept by lowering it. The total counts the standard library's
   tables and buffers too, so it runs on 5.1 only. *)
let test_custody_chain_alloc () =
  if not (String.starts_with ~prefix:"5.1." Sys.ocaml_version) then Alcotest.skip ();
  let open Dip_core in
  let n = 400 and interval = 0.002 and period = 4.0 in
  let horizon = (float_of_int n *. interval) +. (2.0 *. period) in
  let config =
    { Custody.capacity = n; max_bytes = 1 lsl 28; retry = 1.0;
      retry_until = horizon +. (2.0 *. period) }
  in
  let registry = Ops.default_registry () in
  let sim = Sim.create () in
  let routers =
    Array.init 5 (fun i ->
        let name = Printf.sprintf "r%d" (i + 1) in
        let env = Env.create ~name () in
        Dip_tables.Fib.V4.insert env.Env.v4_routes (Ipaddr.V4.of_string "10.0.0.0") ~len:8 1;
        Dip_tables.Fib.V4.insert env.Env.v4_routes (Ipaddr.V4.of_string "192.168.0.0")
          ~len:16 0;
        Custody.add_router ~config sim ~registry ~env ~name ~out_port:1 ())
  in
  let sender =
    Reliable.add_sender ~custody:true sim ~name:"sender" ~seed:102L
      ~src:(Ipaddr.V4.of_string "192.168.0.1") ~dst:(Ipaddr.V4.of_string "10.0.0.1")
      ~out_port:0
  in
  let recv, recv_node = Reliable.add_receiver sim ~name:"receiver" in
  let link a b = Sim.connect sim ~latency:1e-3 a b in
  link (Reliable.sender_node sender, 0) (Custody.node routers.(0), 0);
  for i = 0 to 3 do
    link (Custody.node routers.(i), 1) (Custody.node routers.(i + 1), 0)
  done;
  link (Custody.node routers.(4), 1) (recv_node, 0);
  let faults = Faults.attach ~seed:101L sim in
  Faults.all_links faults (Faults.spec ~drop:0.01 ());
  List.iter
    (fun (a, b) -> Faults.link_down faults (Custody.node routers.(2), 1) ~from_:a ~until:b)
    (Workload.satellite_passes ~seed:103L ~jitter:0.1 ~period ~pass:0.5 ~horizon ());
  Array.iter
    (fun r -> Faults.on_link_up faults (Custody.node r, 1) (fun _ -> Custody.replay r))
    routers;
  let payloads = Array.init n (fun i -> Printf.sprintf "bundle-%06d-%016Lx" i 101L) in
  let w0 = Gc.minor_words () in
  Array.iteri
    (fun i payload -> Reliable.send sender ~at:(float_of_int i *. interval) ~payload)
    payloads;
  Sim.run sim;
  let words = Gc.minor_words () -. w0 and cap = 169930.0 in
  Alcotest.(check int) "every bundle delivered" n (Reliable.delivered recv);
  if words > cap then
    Alcotest.failf "%.0f words, %.4f per delivery (cap %.0f, %.4f)" words
      (words /. float_of_int n) cap (cap /. float_of_int n)

let () =
  Alcotest.run "faults"
    [
      ( "faults",
        [
          Alcotest.test_case "drop all" `Quick test_drop_all;
          Alcotest.test_case "duplicate all" `Quick test_duplicate_all;
          Alcotest.test_case "corrupt all" `Quick test_corrupt_all;
          Alcotest.test_case "link down window" `Quick test_link_down_window;
          Alcotest.test_case "drop-only spec allocates nothing" `Quick
            test_drop_only_alloc;
          Alcotest.test_case "node crash + restart" `Quick
            test_node_crash_and_restart;
          Alcotest.test_case "overlapping crash windows" `Quick
            test_crash_overlapping_windows;
          Alcotest.test_case "nested crash windows" `Quick
            test_crash_nested_windows;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "corruption never delivered" `Quick
            test_corruption_detected_not_delivered;
          Alcotest.test_case "full recovery under faults" `Quick
            test_reliable_full_recovery;
          Alcotest.test_case "seeded schedule reproducible" `Quick
            test_same_seed_same_schedule;
          Alcotest.test_case "no-retransmit baseline loses" `Quick
            test_no_retransmit_loses_packets;
          Alcotest.test_case "retransmit survives sender crash" `Quick
            test_retransmit_survives_sender_crash;
          Alcotest.test_case "rto_max clamps backoff" `Quick
            test_rto_max_clamps_backoff;
          Alcotest.test_case "rto_max validated" `Quick test_rto_max_validated;
          Alcotest.test_case "receiver record compact" `Quick test_receiver_record;
        ] );
      ( "custody",
        [
          Alcotest.test_case "rides out a 15 s outage" `Quick
            test_custody_rides_out_long_outage;
          Alcotest.test_case "seeded runs identical" `Quick
            test_custody_deterministic;
          Alcotest.test_case "replay sweep covers lost ACKs" `Quick
            test_custody_survives_lossy_acks;
          Alcotest.test_case "satellite passes: custody vs e2e" `Quick
            test_custody_satellite_passes;
          Alcotest.test_case "5-custodian chain: words per delivery" `Quick
            test_custody_chain_alloc;
        ] );
      ( "wire",
        [
          QCheck_alcotest.to_alcotest prop_classify_oracle;
          QCheck_alcotest.to_alcotest prop_templates_built;
          QCheck_alcotest.to_alcotest prop_check_parse;
        ] );
    ]

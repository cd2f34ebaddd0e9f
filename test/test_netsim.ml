(* Tests for the discrete-event simulator: the event queue, the
   simulation core, topology builders and workload generators. *)

open Dip_netsim
module Bitbuf = Dip_bitbuf.Bitbuf

(* --- Event queue --- *)

(* The head as an option, and a pop built from the accessors. *)
let peek q =
  if Event_queue.is_empty q then None
  else Some (Event_queue.min_time q, Event_queue.min_payload q)

let pop q =
  let h = peek q in
  if Option.is_some h then Event_queue.drop_min q;
  h

let test_eq_ordering () =
  let q = Event_queue.create ~filler:"" in
  Event_queue.push q ~time:3.0 "c";
  Event_queue.push q ~time:1.0 "a";
  Event_queue.push q ~time:2.0 "b";
  let pop () = match pop q with Some (_, x) -> x | None -> "?" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    [ first; second; third ];
  Alcotest.(check bool) "drained" true (Event_queue.is_empty q)

let test_eq_fifo_ties () =
  let q = Event_queue.create ~filler:(-1) in
  for i = 0 to 9 do
    Event_queue.push q ~time:1.0 i
  done;
  let order = List.init 10 (fun _ ->
      match pop q with Some (_, x) -> x | None -> -1)
  in
  Alcotest.(check (list int)) "insertion order on ties" (List.init 10 Fun.id) order

let test_eq_peek () =
  let q = Event_queue.create ~filler:"" in
  let head = Alcotest.(option (pair (float 0.0) string)) in
  Alcotest.check head "empty" None (peek q);
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "min_time on empty raises" true
    (raises (fun () -> ignore (Event_queue.min_time q)));
  Alcotest.(check bool) "min_payload on empty raises" true
    (raises (fun () -> ignore (Event_queue.min_payload q)));
  Alcotest.(check bool) "drop_min on empty raises" true
    (raises (fun () -> Event_queue.drop_min q));
  Event_queue.push q ~time:5.0 "e";
  Alcotest.check head "peek" (Some (5.0, "e")) (peek q);
  Alcotest.(check int) "size" 1 (Event_queue.size q);
  (* A push after reading the head must not leave the old head visible. *)
  Event_queue.push q ~time:2.0 "b";
  Alcotest.check head "earlier push" (Some (2.0, "b")) (peek q);
  Alcotest.check head "pop = peek" (Some (2.0, "b")) (pop q);
  Alcotest.check head "next" (Some (5.0, "e")) (peek q);
  Alcotest.(check int) "size after pop" 1 (Event_queue.size q)

let test_eq_invalid_times () =
  let q = Event_queue.create ~filler:() in
  Alcotest.(check bool) "nan rejected" true
    (try Event_queue.push q ~time:Float.nan (); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative rejected" true
    (try Event_queue.push q ~time:(-1.0) (); false
     with Invalid_argument _ -> true)

let test_eq_many_random () =
  let q = Event_queue.create ~filler:() in
  let g = Dip_stdext.Prng.create 3L in
  let times = List.init 1000 (fun _ -> Dip_stdext.Prng.float g 100.0) in
  List.iter (fun t -> Event_queue.push q ~time:t ()) times;
  let rec drain last acc =
    match pop q with
    | None -> acc
    | Some (t, ()) ->
        Alcotest.(check bool) "monotone" true (t >= last);
        drain t (acc + 1)
  in
  Alcotest.(check int) "all popped" 1000 (drain 0.0 0)

(* Regression: [pop] used to leave the moved root's old slot pointing
   at a live cell, so the array retained every payload ever popped
   (a space leak) — and a later heap bug could have resurfaced stale
   cells. Times are drawn from a tiny range to force plenty of
   same-timestamp ties. *)
let prop_eq_fifo_ties_and_cleared_slots =
  QCheck.Test.make ~name:"ties pop FIFO and vacated slots are cleared"
    ~count:300
    QCheck.(list (int_bound 7))
    (fun raw ->
      let q = Event_queue.create ~filler:(-1) in
      let pushed = List.mapi (fun i t -> (float_of_int t, i)) raw in
      List.iter (fun (t, i) -> Event_queue.push q ~time:t i) pushed;
      let rec drain acc cleared =
        match pop q with
        | None -> (List.rev acc, cleared)
        | Some (t, i) ->
            drain ((t, i) :: acc)
              (cleared && Event_queue.vacant_slots_cleared q)
      in
      let popped, cleared = drain [] (Event_queue.vacant_slots_cleared q) in
      let expected =
        List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) pushed
      in
      cleared && popped = expected)

(* Model check: random interleavings of push and pop, with timestamps
   from a tiny range so ties abound, against a map ordered by (time,
   insertion order). After every operation the head and size agree
   with the model and no vacant slot holds a payload; once drained and
   released, nothing the queue can reach is a payload. *)
module Model = Map.Make (struct
  type t = float * int

  let compare (t1, s1) (t2, s2) =
    match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
end)

let prop_eq_model =
  QCheck.Test.make ~name:"model: push/pop interleavings match a sorted list"
    ~count:300
    QCheck.(list (option (int_bound 5)))
    (fun ops ->
      let filler = Bytes.empty in
      let q = Event_queue.create ~filler in
      (* (time, seq) -> payload, and its cardinal. *)
      let model = ref Model.empty and size = ref 0 in
      let ok = ref true in
      let expect b = if not b then ok := false in
      List.iteri
        (fun seq op ->
          (match op with
          | Some t ->
              let time = float_of_int t in
              let payload = Bytes.of_string (string_of_int seq) in
              Event_queue.push q ~time payload;
              model := Model.add (time, seq) payload !model;
              incr size
          | None -> (
              match (pop q, Model.min_binding_opt !model) with
              | None, None -> ()
              | Some (time, p), Some (((time', _) as key), p') ->
                  expect (time = time' && p == p');
                  model := Model.remove key !model;
                  decr size
              | _ -> expect false));
          expect (Event_queue.size q = !size);
          expect (Event_queue.vacant_slots_cleared q);
          match (peek q, Model.min_binding_opt !model) with
          | None, None -> ()
          | Some (time, p), Some ((time', _), p') ->
              expect (time = time' && p == p')
          | _ -> expect false)
        ops;
      Model.iter
        (fun (time, _) p ->
          match pop q with
          | Some (time', p') -> expect (time = time' && p == p')
          | None -> expect false)
        !model;
      expect (Event_queue.is_empty q);
      Event_queue.release q;
      expect
        (Obj.reachable_words (Obj.repr q)
        = Obj.reachable_words (Obj.repr (Event_queue.create ~filler)));
      !ok)

(* At working capacity, a push/drop pair allocates nothing: the keys
   go into unboxed arrays and the payload into a recycled slot. The
   times are boxed once, in a static list, as the run loop's are. *)
let test_eq_push_drop_no_alloc () =
  let q = Event_queue.create ~filler:"" in
  let payload = "p" in
  let times = [ 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0; 5.0; 3.0 ] in
  for i = 1 to 15 do
    Event_queue.push q ~time:(float_of_int i) payload
  done;
  let rec pairs n = function
    | _ when n = 0 -> ()
    | [] -> pairs n times
    | time :: rest ->
        Event_queue.push q ~time payload;
        Event_queue.drop_min q;
        pairs (n - 1) rest
  in
  pairs 16 times;
  let w0 = Gc.minor_words () in
  pairs 10_000 times;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words for 10k push/drop pairs" 0.0 words;
  Alcotest.(check int) "size held" 15 (Event_queue.size q)

(* A reserved seq is the one a push at that moment would have taken:
   the next push skips it, and the head reports its own. [release]
   leaves a non-empty queue as it is. *)
let test_eq_reserve_seq () =
  let q = Event_queue.create ~filler:"" in
  Event_queue.push q ~time:1.0 "a";
  let r = Event_queue.reserve_seq q in
  Event_queue.push q ~time:1.0 "b";
  Alcotest.(check int) "head seq" (r - 1) (Event_queue.min_seq q);
  Event_queue.release q;
  Event_queue.drop_min q;
  Alcotest.(check int) "next push took the following seq" (r + 1)
    (Event_queue.min_seq q);
  Alcotest.(check string) "release kept the live event" "b"
    (Event_queue.min_payload q)

(* --- Sim core --- *)

let packet s = Bitbuf.of_string s

(* A node that forwards everything from port 0 to port 1 and vice
   versa; endpoints consume. *)
let relay_handler _sim ~now:_ ~ingress pkt =
  [ Sim.Forward ((if ingress = 0 then 1 else 0), pkt) ]

let consume_handler _sim ~now:_ ~ingress:_ _pkt = [ Sim.Consume ]

let test_sim_linear_delivery () =
  let sim = Sim.create () in
  let delivered = Deliveries.record sim in
  let a = Sim.add_node sim ~name:"a" consume_handler in
  let r = Sim.add_node sim ~name:"r" relay_handler in
  let b = Sim.add_node sim ~name:"b" consume_handler in
  Sim.connect sim ~latency:1e-3 (a, 0) (r, 0);
  Sim.connect sim ~latency:1e-3 (r, 1) (b, 0);
  (* Inject at r as if coming from a: r must relay to b. *)
  Sim.inject sim ~at:0.0 ~node:r ~port:0 (packet "hello");
  Sim.run sim;
  match delivered () with
  | [ (node, time, pkt) ] ->
      Alcotest.(check int) "delivered to b" b node;
      Alcotest.(check bool) "after one link latency" true (time >= 1e-3);
      Alcotest.(check string) "payload intact" "hello" (Bitbuf.to_string pkt)
  | l -> Alcotest.failf "expected one delivery, got %d" (List.length l)

let test_sim_counters () =
  let sim = Sim.create () in
  let r = Sim.add_node sim ~name:"r" relay_handler in
  let b = Sim.add_node sim ~name:"b" consume_handler in
  Sim.connect sim (r, 1) (b, 0);
  Sim.inject sim ~at:0.0 ~node:r ~port:0 (packet "x");
  Sim.run sim;
  let c = Sim.counters sim in
  Alcotest.(check int) "r.rx" 1 (Stats.Counters.get c "r.rx");
  Alcotest.(check int) "r.tx" 1 (Stats.Counters.get c "r.tx");
  Alcotest.(check int) "b.consumed" 1 (Stats.Counters.get c "b.consumed")

let test_sim_drop_counted () =
  let sim = Sim.create () in
  let d =
    Sim.add_node sim ~name:"d" (fun _ ~now:_ ~ingress:_ _ -> [ Sim.Drop "no-route" ])
  in
  Sim.inject sim ~at:0.0 ~node:d ~port:0 (packet "x");
  Sim.run sim;
  Alcotest.(check int) "drop reason counted" 1
    (Stats.Counters.get (Sim.counters sim) "d.drop.no-route")

let test_sim_unwired_port () =
  let sim = Sim.create () in
  let r = Sim.add_node sim ~name:"r" relay_handler in
  Sim.inject sim ~at:0.0 ~node:r ~port:0 (packet "x");
  Sim.run sim;
  Alcotest.(check int) "unwired drop" 1
    (Stats.Counters.get (Sim.counters sim) "r.drop.unwired-port")

let test_sim_bandwidth_delay () =
  let sim = Sim.create () in
  let delivered = Deliveries.record sim in
  let r = Sim.add_node sim ~name:"r" relay_handler in
  let b = Sim.add_node sim ~name:"b" consume_handler in
  (* 1000 B/s: a 100-byte packet takes 0.1 s of serialization. *)
  Sim.connect sim ~latency:0.0 ~bandwidth:1000.0 (r, 1) (b, 0);
  Sim.inject sim ~at:0.0 ~node:r ~port:0 (Bitbuf.create 100);
  Sim.run sim;
  match delivered () with
  | [ (_, time, _) ] ->
      Alcotest.(check (float 1e-9)) "serialization delay" 0.1 time
  | _ -> Alcotest.fail "expected one delivery"

let test_sim_double_wire_rejected () =
  let sim = Sim.create () in
  let a = Sim.add_node sim ~name:"a" consume_handler in
  let b = Sim.add_node sim ~name:"b" consume_handler in
  let c = Sim.add_node sim ~name:"c" consume_handler in
  Sim.connect sim (a, 0) (b, 0);
  let rejected f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "rewiring rejected" true
    (rejected (fun () -> Sim.connect sim (a, 0) (c, 0)));
  Alcotest.(check bool) "negative port rejected" true
    (rejected (fun () -> Sim.connect sim (a, -1) (c, 0)));
  Alcotest.(check bool) "negative far port rejected" true
    (rejected (fun () -> Sim.connect sim (c, 0) (a, -1)));
  Alcotest.(check bool) "rejected wiring left c unwired" true
    (Sim.neighbor sim c 0 = None);
  (* A port past every wired one (and a negative one) reads as
     unwired... *)
  Alcotest.(check int) "depth beyond wired ports" 0 (Sim.queue_depth sim a 7);
  Alcotest.(check bool) "no neighbor beyond wired ports" true
    (Sim.neighbor sim a 7 = None);
  Alcotest.(check bool) "no neighbor on a negative port" true
    (Sim.neighbor sim a (-1) = None);
  (* ...and transmitting on it is an unwired-port drop. *)
  let r =
    Sim.add_node sim ~name:"r" (fun _ ~now:_ ~ingress:_ pkt ->
        [ Sim.Forward (7, pkt); Sim.Forward (-1, pkt) ])
  in
  Sim.connect sim (r, 0) (c, 0);
  Sim.inject sim ~at:0.0 ~node:r ~port:3 (packet "x");
  Sim.run sim;
  Alcotest.(check int) "unwired-port drops" 2
    (Stats.Counters.get (Sim.counters sim) "r.drop.unwired-port")

(* Regression: an event scheduled before the current instant used to
   run, setting the clock back. *)
let test_sim_no_past_events () =
  let sim = Sim.create () in
  let delivered = Deliveries.record sim in
  let a = Sim.add_node sim ~name:"a" consume_handler in
  let rejected f = try f (); false with Invalid_argument _ -> true in
  let outcome = ref [] in
  Sim.schedule sim ~at:5.0 (fun s ->
      outcome :=
        [
          rejected (fun () -> Sim.schedule s ~at:3.0 (fun _ -> ()));
          rejected (fun () -> Sim.inject s ~at:3.0 ~node:a ~port:0 (packet "x"));
          rejected (fun () -> Sim.schedule s ~at:5.0 (fun _ -> ()));
        ]);
  Sim.run sim;
  Alcotest.(check (list bool)) "past rejected, present accepted"
    [ true; true; false ] !outcome;
  Alcotest.(check (float 0.0)) "clock never ran backwards" 5.0 (Sim.now sim);
  Alcotest.(check int) "nothing delivered" 0 (List.length (delivered ()))

let test_sim_timer () =
  let sim = Sim.create () in
  let fired = ref (-1.0) in
  Sim.schedule sim ~at:2.5 (fun s -> fired := Sim.now s);
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "timer fired at its time" 2.5 !fired

let test_sim_run_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  Sim.schedule sim ~at:1.0 (fun _ -> incr fired);
  Sim.schedule sim ~at:10.0 (fun _ -> incr fired);
  Sim.run ~until:5.0 sim;
  Alcotest.(check int) "only early event ran" 1 !fired;
  Sim.run sim;
  Alcotest.(check int) "rest runs later" 2 !fired

let test_sim_on_consume_hook () =
  let sim = Sim.create () in
  let b = Sim.add_node sim ~name:"b" consume_handler in
  let seen = ref [] in
  Sim.on_consume sim (fun node _ pkt ->
      seen := (node, Bitbuf.to_string pkt) :: !seen);
  Sim.inject sim ~at:0.0 ~node:b ~port:0 (packet "ping");
  Sim.run sim;
  Alcotest.(check bool) "hook saw delivery" true (!seen = [ (b, "ping") ])

let test_sim_deterministic () =
  let run_once () =
    let sim = Sim.create () in
    let delivered = Deliveries.record sim in
    let r = Sim.add_node sim ~name:"r" relay_handler in
    let b = Sim.add_node sim ~name:"b" consume_handler in
    Sim.connect sim ~latency:1e-4 (r, 1) (b, 0);
    List.iter
      (fun (a : Fixtures.arrival) ->
        Sim.inject sim ~at:a.time ~node:r ~port:0
          (packet (string_of_int a.index)))
      (Fixtures.poisson_arrivals ~seed:7L ~rate:100.0 ~count:50);
    Sim.run sim;
    List.map (fun (_, t, p) -> (t, Bitbuf.to_string p)) (delivered ())
  in
  Alcotest.(check bool) "identical reruns" true (run_once () = run_once ())


let test_sim_serialization_queueing () =
  (* Two back-to-back packets on a 1000 B/s link: the second waits
     for the first to finish serializing. *)
  let sim = Sim.create () in
  let delivered = Deliveries.record sim in
  let r = Sim.add_node sim ~name:"r" relay_handler in
  let b = Sim.add_node sim ~name:"b" consume_handler in
  Sim.connect sim ~latency:0.0 ~bandwidth:1000.0 (r, 1) (b, 0);
  Sim.inject sim ~at:0.0 ~node:r ~port:0 (Bitbuf.create 100);
  Sim.inject sim ~at:0.0 ~node:r ~port:0 (Bitbuf.create 100);
  Sim.run sim;
  match delivered () with
  | [ (_, t1, _); (_, t2, _) ] ->
      Alcotest.(check (float 1e-9)) "first at 0.1" 0.1 t1;
      Alcotest.(check (float 1e-9)) "second serialized behind it" 0.2 t2
  | l -> Alcotest.failf "expected 2 deliveries, got %d" (List.length l)

let test_sim_queue_overflow () =
  let sim = Sim.create () in
  let delivered = Deliveries.record sim in
  let r = Sim.add_node sim ~name:"r" relay_handler in
  let b = Sim.add_node sim ~name:"b" consume_handler in
  Sim.connect sim ~latency:0.0 ~bandwidth:1000.0 ~queue_capacity:2 (r, 1) (b, 0);
  for _ = 1 to 5 do
    Sim.inject sim ~at:0.0 ~node:r ~port:0 (Bitbuf.create 100)
  done;
  Sim.run sim;
  Alcotest.(check int) "two delivered" 2 (List.length (delivered ()));
  Alcotest.(check int) "three drop-tailed" 3
    (Stats.Counters.get (Sim.counters sim) "r.drop.queue-overflow")

let test_sim_queue_overflow_infinite_bw () =
  (* Regression: infinite-bandwidth links used to bypass the queue
     accounting entirely, so queue_capacity never bound and every
     packet of a burst got through. *)
  let sim = Sim.create () in
  let delivered = Deliveries.record sim in
  let r = Sim.add_node sim ~name:"r" relay_handler in
  let b = Sim.add_node sim ~name:"b" consume_handler in
  Sim.connect sim ~latency:1e-3 ~queue_capacity:2 (r, 1) (b, 0);
  for _ = 1 to 5 do
    Sim.inject sim ~at:0.0 ~node:r ~port:0 (Bitbuf.create 100)
  done;
  Sim.run sim;
  Alcotest.(check int) "capacity binds" 2 (List.length (delivered ()));
  Alcotest.(check int) "rest drop-tailed" 3
    (Stats.Counters.get (Sim.counters sim) "r.drop.queue-overflow");
  Alcotest.(check int) "only accepted packets counted as tx" 2
    (Stats.Counters.get (Sim.counters sim) "r.tx");
  Alcotest.(check int) "slots released after departure" 0
    (Sim.queue_depth sim r 1)

let test_sim_counters_infinite_bw_in_flight () =
  (* Regression: the in-flight count on an infinite-bandwidth link
     must rise while a handler's burst is being enqueued — it is what
     an F_tel-style hook observes. The handler transmits its burst
     one action at a time, so capacity 3 admits exactly 3 of 5. *)
  let sim = Sim.create () in
  let delivered = Deliveries.record sim in
  let burst _sim ~now:_ ~ingress:_ pkt =
    List.init 5 (fun _ -> Sim.Forward (1, pkt))
  in
  let r = Sim.add_node sim ~name:"r" burst in
  let b = Sim.add_node sim ~name:"b" consume_handler in
  Sim.connect sim ~latency:1e-3 ~queue_capacity:3 (r, 1) (b, 0);
  Sim.inject sim ~at:0.0 ~node:r ~port:0 (packet "go");
  Sim.run sim;
  Alcotest.(check int) "three admitted" 3 (List.length (delivered ()));
  Alcotest.(check int) "two overflowed" 2
    (Stats.Counters.get (Sim.counters sim) "r.drop.queue-overflow")

let test_sim_queue_depth_observable () =
  let sim = Sim.create () in
  let r = Sim.add_node sim ~name:"r" relay_handler in
  let b = Sim.add_node sim ~name:"b" consume_handler in
  Sim.connect sim ~latency:0.0 ~bandwidth:1000.0 (r, 1) (b, 0);
  let observed = ref (-1) in
  for _ = 1 to 4 do
    Sim.inject sim ~at:0.0 ~node:r ~port:0 (Bitbuf.create 100)
  done;
  (* Observe the egress queue right after the burst was enqueued. *)
  Sim.schedule sim ~at:0.01 (fun s -> observed := Sim.queue_depth s r 1);
  Sim.run sim;
  Alcotest.(check bool)
    (Printf.sprintf "depth was %d" !observed)
    true (!observed >= 3);
  Alcotest.(check int) "drains to zero" 0 (Sim.queue_depth sim r 1)

(* --- Departures: a link's FIFO of (time, seq) keys --- *)

(* On an infinite-bandwidth link a packet departs at the instant it is
   sent. A timer queued before that transmit, at the same instant,
   still sees the packet's slot taken; a timer queued after it sees it
   free — the tie-break of an event-per-departure loop. *)
let test_departure_tie_order () =
  let sim = Sim.create () in
  let r = Sim.add_node sim ~name:"r" relay_handler in
  let b = Sim.add_node sim ~name:"b" consume_handler in
  Sim.connect sim ~latency:1e-3 (r, 1) (b, 0);
  Sim.inject sim ~at:1.0 ~node:r ~port:0 (packet "x");
  let before = ref (-1) and after = ref (-1) in
  Sim.schedule sim ~at:1.0 (fun s ->
      before := Sim.queue_depth s r 1;
      Sim.schedule s ~at:1.0 (fun s -> after := Sim.queue_depth s r 1));
  Sim.run sim;
  Alcotest.(check int) "timer queued before the transmit" 1 !before;
  Alcotest.(check int) "timer queued after the transmit" 0 !after

(* A 100-byte packet on a 1000 B/s link with 1 s of latency departs at
   0.1 and arrives at 1.1. A run stopped between the two leaves the
   clock at the departure and the slot free, as a loop that popped a
   departure event would. *)
let test_departure_run_until () =
  let sim = Sim.create () in
  let delivered = Deliveries.record sim in
  let r = Sim.add_node sim ~name:"r" relay_handler in
  let b = Sim.add_node sim ~name:"b" consume_handler in
  Sim.connect sim ~latency:1.0 ~bandwidth:1000.0 (r, 1) (b, 0);
  Sim.inject sim ~at:0.0 ~node:r ~port:0 (Bitbuf.create 100);
  Sim.run ~until:0.05 sim;
  Alcotest.(check (float 0.0)) "before the departure: clock" 0.0 (Sim.now sim);
  Alcotest.(check int) "before the departure: serializing" 1
    (Sim.queue_depth sim r 1);
  Sim.run ~until:0.5 sim;
  Alcotest.(check (float 0.0)) "after the departure: clock" 0.1 (Sim.now sim);
  Alcotest.(check int) "after the departure: slot free" 0 (Sim.queue_depth sim r 1);
  Alcotest.(check int) "not yet delivered" 0 (List.length (delivered ()));
  Sim.run sim;
  Alcotest.(check (float 0.0)) "drained: clock at the arrival" 1.1 (Sim.now sim);
  Alcotest.(check int) "delivered" 1 (List.length (delivered ()))

(* Regression: a batching window wider than a link's latency used to
   run the clock backwards. r1 -> r2 -> sink over 1 us links, five
   injections 1 us apart, all in one 1 s window at r1: applied, it
   leaves the clock at 4 us, and its transmits reach r2 at 1-5 us.
   Those arrivals ran with the clock set back to each one's time. Now
   every clock assignment takes the later time: each handler, in the
   loop or the batch backend, and each delivery sees a non-decreasing
   [Sim.now]. At [~window:0.0] the same network gives what [Sim.run]
   gives. *)
let test_batched_clock_monotone () =
  let chain ~run =
    let sim = Sim.create () in
    let seen = ref [] in
    let note sim = seen := Sim.now sim :: !seen in
    let relay sim ~now:_ ~ingress:_ pkt =
      note sim;
      [ Sim.Forward (1, pkt) ]
    in
    let sink sim ~now:_ ~ingress:_ _ =
      note sim;
      [ Sim.Consume ]
    in
    let r1 = Sim.add_node sim ~name:"r1" relay in
    let r2 = Sim.add_node sim ~name:"r2" relay in
    let s = Sim.add_node sim ~name:"sink" sink in
    Sim.connect sim ~latency:1e-6 (r1, 1) (r2, 0);
    Sim.connect sim ~latency:1e-6 (r2, 1) (s, 0);
    let delivered = ref [] in
    Sim.on_consume sim (fun _ time pkt ->
        seen := time :: !seen;
        delivered := (time, Bitbuf.to_string pkt) :: !delivered);
    for k = 0 to 4 do
      Sim.inject sim ~at:(float_of_int k *. 1e-6) ~node:r1 ~port:0
        (packet (string_of_int k))
    done;
    run sim ~batchable:(fun id -> id = r1 || id = r2) ~relay;
    (List.rev !seen, List.rev !delivered, Sim.now sim)
  in
  let batched window sim ~batchable ~relay =
    Sim.run_batched ~window sim ~batchable
      ~exec:
        (Array.map (fun (it : Sim.batch_item) ->
             relay sim ~now:it.b_time ~ingress:it.b_port it.b_packet))
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  let seen, delivered, _ = chain ~run:(batched 1.0) in
  Alcotest.(check int) "five delivered" 5 (List.length delivered);
  Alcotest.(check bool)
    (Printf.sprintf "Sim.now non-decreasing: %s"
       (String.concat " " (List.map (Printf.sprintf "%g") seen)))
    true (monotone seen);
  let plain = chain ~run:(fun sim ~batchable:_ ~relay:_ -> Sim.run sim) in
  let _, d0, c0 = chain ~run:(batched 0.0) and _, d, c = plain in
  Alcotest.(check (list (pair (float 0.0) string))) "window 0 = run: deliveries" d d0;
  Alcotest.(check (float 0.0)) "window 0 = run: clock" c c0

(* The simulator on a Sim_ref scenario, observed as the reference
   loop observes itself: by [Sim.run], or with [~batched] by
   [Sim.run_batched ~window:0.0] with every node batchable and its
   handler as the batch backend. The scenario's jitter is an egress
   hook, so a delayed packet's arrival is an event. *)
let run_scenario ?(batched = false) (s : Sim_ref.scenario) =
  let sim = Sim.create () in
  let deliveries = ref [] in
  Sim.on_consume sim (fun node time pkt ->
      deliveries := (node, time, Bitbuf.get_uint16 pkt 0) :: !deliveries);
  let handler node _sim ~now:_ ~ingress pkt =
    match Sim_ref.route ~node ~ingress ~size:(Bitbuf.length pkt) with
    | [] -> [ Sim.Consume ]
    | ports -> List.map (fun p -> Sim.Forward (p, pkt)) ports
  in
  let ids = List.init 3 (fun i -> Sim.add_node sim ~name:(Printf.sprintf "n%d" i) (handler i)) in
  let connect (l : Sim_ref.link) a b =
    Sim.connect sim ~latency:l.latency ~bandwidth:l.bandwidth
      ~queue_capacity:l.capacity a b
  in
  connect (fst s.links) (0, 1) (1, 0);
  connect (snd s.links) (1, 1) (2, 0);
  if Option.is_some s.jitter then begin
    let delay = Sim_ref.delays s in
    Sim.set_egress_hook sim (fun _ ~from:_ packet ->
        [ { Sim.packet; extra_delay = delay () } ])
  end;
  let run ?until () =
    if batched then
      Sim.run_batched ?until ~window:0.0 sim
        ~batchable:(fun _ -> true)
        ~exec:
          (Array.map (fun (it : Sim.batch_item) ->
               handler it.b_node sim ~now:it.b_time ~ingress:it.b_port it.b_packet))
    else Sim.run ?until sim
  in
  List.iteri
    (fun id (at, node, port, size) ->
      let pkt = Bitbuf.create size in
      Bitbuf.set_uint16 pkt 0 id;
      Sim.inject sim ~at ~node:(List.nth ids node) ~port pkt)
    s.injects;
  let depths () = List.map (fun (n, p) -> Sim.queue_depth sim n p) Sim_ref.ends in
  let probes = ref [] in
  List.iter
    (fun at ->
      Sim.schedule sim ~at (fun sim ->
          probes := (Sim.now sim, 1, depths ()) :: !probes;
          Sim.schedule sim ~at:(Sim.now sim) (fun sim ->
              probes := (Sim.now sim, 2, depths ()) :: !probes)))
    s.probes;
  let at_until =
    Option.map
      (fun until ->
        run ~until ();
        (Sim.now sim, depths ()))
      s.until
  in
  run ();
  {
    Sim_ref.probes = List.rev !probes;
    deliveries = List.rev !deliveries;
    overflows =
      List.init 3 (fun i ->
          Stats.Counters.get (Sim.counters sim)
            (Printf.sprintf "n%d.drop.queue-overflow" i));
    at_until;
    final_clock = Sim.now sim;
  }

(* Times on a quarter-second grid, sizes of 2-6 bytes and bandwidths
   of 1-8 B/s: every departure lands on the grid, so bursts tie,
   probes fall on departure instants and [until] can stop exactly at
   one. Half the scenarios delay some transmissions by a grid step or
   more, so later packets overtake them. *)
let gen_scenario =
  let open QCheck.Gen in
  let grid n = map (fun k -> 0.25 *. float_of_int k) (int_bound n) in
  let link =
    map3
      (fun latency bandwidth capacity -> { Sim_ref.latency; bandwidth; capacity })
      (oneofl [ 0.0; 0.25; 1.0; 1.5 ])
      (oneofl [ Float.infinity; 1.0; 2.0; 4.0; 8.0 ])
      (oneofl [ 1; 2; 3; max_int ])
  in
  let inject =
    map3
      (fun at (node, port) size -> (at, node, port, size))
      (grid 16)
      (oneofl [ (0, 0); (1, 0); (2, 1); (1, 1) ])
      (int_range 2 6)
  in
  map5
    (fun links injects probes until jitter ->
      { Sim_ref.links; injects; probes; until; jitter })
    (pair link link)
    (list_size (int_range 1 24) inject)
    (list_size (int_bound 12) (grid 40))
    (opt (grid 40))
    (opt ~ratio:0.5 (int_bound 1_000_000))

let print_scenario (s : Sim_ref.scenario) =
  let link (l : Sim_ref.link) =
    Printf.sprintf "{lat %g; bw %g; cap %d}" l.latency l.bandwidth l.capacity
  in
  Printf.sprintf "links %s %s; injects [%s]; probes [%s]; until %s; jitter %s"
    (link (fst s.links)) (link (snd s.links))
    (String.concat "; "
       (List.map
          (fun (at, n, p, size) -> Printf.sprintf "%g@n%d:%d/%dB" at n p size)
          s.injects))
    (String.concat "; " (List.map string_of_float s.probes))
    (match s.until with None -> "-" | Some u -> string_of_float u)
    (match s.jitter with None -> "-" | Some seed -> string_of_int seed)

let prop_departures_match_reference =
  QCheck.Test.make ~name:"FIFO departures = event-per-departure loop" ~count:500
    (QCheck.make ~print:print_scenario gen_scenario)
    (fun s ->
      let reference = Sim_ref.run s in
      run_scenario s = reference && run_scenario ~batched:true s = reference)

(* --- Allocation --- *)

(* One packet bouncing between two nodes: the event queue runs empty
   at every arrival. The handler returns a prebuilt action list, so
   what is counted is the simulator's own work per arrival. *)
let test_ping_pong_alloc () =
  let sim = Sim.create () in
  let pkt = Bitbuf.create 64 in
  let bounce = [ Sim.Forward (0, pkt) ] and stop = [ Sim.Consume ] in
  let arrivals = ref 0 and limit = 20_000 in
  let handler _sim ~now:_ ~ingress:_ _ =
    incr arrivals;
    if !arrivals < limit then bounce else stop
  in
  let a = Sim.add_node sim ~name:"a" handler in
  let b = Sim.add_node sim ~name:"b" handler in
  Sim.connect sim (a, 0) (b, 0);
  Sim.inject sim ~at:0.0 ~node:a ~port:0 pkt;
  let w0 = Gc.minor_words () in
  Sim.run sim;
  let per_arrival = (Gc.minor_words () -. w0) /. float_of_int !arrivals in
  Alcotest.(check int) "arrivals" limit !arrivals;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per arrival (at most 8)" per_arrival)
    true (per_arrival <= 8.0)

(* Many packets queued on one link: a burst of 64 back-to-back
   packets on a finite-bandwidth link, so the ring holds them all
   while the first ones arrive. After a warm-up burst has grown the
   ring and the busy heap, an arrival costs the simulator no more than
   the ping-pong's. *)
let test_queued_link_alloc () =
  let sim = Sim.create () in
  let pkt = Bitbuf.create 64 in
  let burst = List.init 64 (fun _ -> Sim.Forward (1, pkt)) and stop = [ Sim.Consume ] in
  let arrivals = ref 0 in
  let source _sim ~now:_ ~ingress:_ _ = burst in
  let sink _sim ~now:_ ~ingress:_ _ =
    incr arrivals;
    stop
  in
  let a = Sim.add_node sim ~name:"a" source in
  let b = Sim.add_node sim ~name:"b" sink in
  Sim.connect sim ~latency:1e-3 ~bandwidth:1e6 (a, 1) (b, 0);
  let round k =
    for i = 0 to 99 do
      Sim.inject sim ~at:(float_of_int ((100 * k) + i)) ~node:a ~port:0 pkt
    done;
    Sim.run ~until:(float_of_int ((100 * k) + 99)) sim
  in
  round 0;
  let before = !arrivals in
  let w0 = Gc.minor_words () in
  round 1;
  let n = !arrivals - before in
  let per_arrival = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool) "arrivals" true (n >= 99 * 64);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per arrival (at most 8)" per_arrival)
    true (per_arrival <= 8.0)

(* --- Topology --- *)

let test_topo_linear () =
  let t = Topology.linear 4 in
  Alcotest.(check int) "nodes" 4 t.Topology.node_count;
  Alcotest.(check (list int)) "middle neighbors" [ 0; 2 ] (Topology.neighbors t 1);
  Alcotest.(check int) "port numbering" 1 (Topology.port_of t 1 2);
  Alcotest.(check int) "port numbering" 0 (Topology.port_of t 1 0)

let test_topo_star () =
  let t = Fixtures.star 5 in
  Alcotest.(check int) "nodes" 6 t.Topology.node_count;
  Alcotest.(check int) "hub degree" 5 (List.length (Topology.neighbors t 0));
  Alcotest.(check (list int)) "leaf sees hub" [ 0 ] (Topology.neighbors t 3)

let test_topo_dumbbell () =
  let t = Fixtures.dumbbell 2 3 in
  Alcotest.(check int) "nodes" 7 t.Topology.node_count;
  (* switches are 2 and 3 *)
  Alcotest.(check bool) "switches linked" true (List.mem 3 (Topology.neighbors t 2));
  Alcotest.(check int) "left switch degree" 3 (List.length (Topology.neighbors t 2))

let test_topo_random_connected () =
  let t = Topology.random ~seed:5L ~nodes:30 ~degree:3 in
  let pred = Topology.shortest_paths t ~src:0 in
  let reachable = ref 1 in
  for v = 1 to 29 do
    if pred.(v) <> -1 then incr reachable
  done;
  Alcotest.(check int) "connected" 30 !reachable

let test_topo_next_hop () =
  let t = Topology.linear 5 in
  Alcotest.(check (option int)) "forward" (Some 1) (Topology.next_hop t ~src:0 ~dst:4);
  Alcotest.(check (option int)) "backward" (Some 3) (Topology.next_hop t ~src:4 ~dst:0);
  Alcotest.(check (option int)) "self" None (Topology.next_hop t ~src:2 ~dst:2)

let test_topo_instantiate () =
  let t = Topology.linear 3 in
  let sim = Sim.create () in
  let delivered = Deliveries.record sim in
  let relay i = if i = 1 then relay_handler else consume_handler in
  let ids = Topology.instantiate t sim ~name:(Printf.sprintf "n%d") ~handler:relay in
  (* Node 0 sends through 1 to 2. *)
  Sim.inject sim ~at:0.0 ~node:ids.(1) ~port:0 (packet "via");
  Sim.run sim;
  match delivered () with
  | [ (node, _, _) ] -> Alcotest.(check int) "reached n2" ids.(2) node
  | _ -> Alcotest.fail "expected delivery"

(* --- Trace --- *)

let test_trace_journey () =
  let sim = Sim.create () in
  let trace = Trace.attach sim in
  (* Fingerprint by payload content so hop rewrites would not matter
     (relay does not rewrite anyway). *)
  let r = Sim.add_node sim ~name:"r" (Trace.wrap trace ~name:"r" relay_handler) in
  let b = Sim.add_node sim ~name:"b" (Trace.wrap trace ~name:"b" consume_handler) in
  Sim.connect sim ~latency:1e-3 (r, 1) (b, 0);
  let pkt = packet "traced" in
  let fp = Dip_stdext.Crc32.digest "traced" in
  Sim.inject sim ~at:0.0 ~node:r ~port:0 pkt;
  Sim.run sim;
  let j = Trace.journey trace fp in
  let kinds = List.map (fun (e : Trace.event) -> (e.Trace.node, e.Trace.kind)) j in
  Alcotest.(check bool) "r received, b received+consumed" true
    (kinds
    = [ ("r", Trace.Received 0); ("b", Trace.Received 0); ("b", Trace.Consumed) ])

let test_trace_drop_recorded () =
  let sim = Sim.create () in
  let trace = Trace.attach sim in
  let d =
    Sim.add_node sim ~name:"d"
      (Trace.wrap trace ~name:"d" (fun _ ~now:_ ~ingress:_ _ -> [ Sim.Drop "boom" ]))
  in
  Sim.inject sim ~at:0.0 ~node:d ~port:0 (packet "x");
  Sim.run sim;
  match Trace.events trace with
  | [ { Trace.kind = Trace.Received 0; _ }; { Trace.kind = Trace.Dropped "boom"; _ } ] -> ()
  | l -> Alcotest.failf "unexpected trace (%d events)" (List.length l)

let test_trace_event_cap () =
  (* Past max_events the trace stops growing and counts the drops;
     journeys over the kept prefix still work. *)
  let sim = Sim.create () in
  let trace = Trace.attach ~max_events:3 sim in
  let d =
    Sim.add_node sim ~name:"d"
      (Trace.wrap trace ~name:"d" (fun _ ~now:_ ~ingress:_ _ -> [ Sim.Drop "full" ]))
  in
  for i = 0 to 4 do
    Sim.inject sim ~at:(float_of_int i) ~node:d ~port:0 (packet "capped")
  done;
  Sim.run sim;
  (* 5 packets x 2 events each (received + dropped), cap 3. *)
  Alcotest.(check int) "kept" 3 (Trace.event_count trace);
  Alcotest.(check int) "dropped" 7 (Trace.dropped_events trace);
  Alcotest.(check int) "events listing matches" 3
    (List.length (Trace.events trace));
  Alcotest.(check int) "journey sees the kept prefix" 3
    (List.length (Trace.journey trace (Dip_stdext.Crc32.digest "capped")));
  Alcotest.(check bool) "cap must be positive" true
    (try ignore (Trace.attach ~max_events:0 (Sim.create ())); false
     with Invalid_argument _ -> true)

let test_trace_journey_isolated () =
  (* Events are indexed per fingerprint: one packet's journey never
     scans (or includes) another's events. *)
  let sim = Sim.create () in
  let trace = Trace.attach sim in
  let d =
    Sim.add_node sim ~name:"d"
      (Trace.wrap trace ~name:"d" consume_handler)
  in
  Sim.inject sim ~at:0.0 ~node:d ~port:0 (packet "aaa");
  Sim.inject sim ~at:1.0 ~node:d ~port:0 (packet "bbb");
  Sim.run sim;
  let ja = Trace.journey trace (Dip_stdext.Crc32.digest "aaa") in
  let jb = Trace.journey trace (Dip_stdext.Crc32.digest "bbb") in
  Alcotest.(check int) "a's events" 2 (List.length ja);
  Alcotest.(check int) "b's events" 2 (List.length jb);
  List.iter
    (fun (e : Trace.event) ->
      Alcotest.(check bool) "a precedes b" true (e.Trace.time < 1.0))
    ja;
  Alcotest.(check int) "nothing for unknown fp" 0
    (List.length (Trace.journey trace 0xDEADl))

(* --- Stats --- *)

(* The view reads what handles wrote: sorted, 0 for a missing name,
   and a handle registered but never written stays out of the list —
   also after a merge through [Metrics.absorb]. *)
let test_counters () =
  let module M = Dip_obs.Metrics in
  let m = M.create () in
  let tx = M.counter m "tx" and rx = M.counter m "rx" in
  let zero = M.counter m "zero" in
  ignore (M.counter m "idle" : M.counter);
  M.Counter.incr rx;
  M.Counter.incr rx;
  M.Counter.incr ~by:5 tx;
  M.Counter.set zero 0;
  let drops = M.family m "drop." in
  M.Counter.incr (M.member drops "queue");
  M.Counter.incr (M.member drops ("que" ^ "ue"));
  Alcotest.(check int) "rx" 2 (Stats.Counters.get m "rx");
  Alcotest.(check int) "tx" 5 (Stats.Counters.get m "tx");
  Alcotest.(check int) "missing is 0" 0 (Stats.Counters.get m "nope");
  Alcotest.(check int) "registered, unwritten is 0" 0
    (Stats.Counters.get m "idle");
  let expect = [ ("drop.queue", 2); ("rx", 2); ("tx", 5); ("zero", 0) ] in
  Alcotest.(check (list (pair string int))) "sorted, written only" expect
    (Stats.Counters.to_list m);
  let merged = M.create () in
  M.absorb merged m;
  Alcotest.(check (list (pair string int))) "absorb keeps the written set"
    expect (Stats.Counters.to_list merged);
  Alcotest.(check bool) "unwritten handle still exported" true
    (List.exists (fun (n, _, _) -> n = "idle") (M.snapshot merged))

(* --- Workload --- *)

let test_workload_sizes () =
  Alcotest.(check (list int)) "paper sizes" [ 128; 768; 1500 ]
    Workload.paper_packet_sizes

let test_workload_pad () =
  let hdr = Bitbuf.of_string "abc" in
  let padded = Fixtures.pad_to hdr 10 in
  Alcotest.(check int) "padded" 10 (Bitbuf.length padded);
  Alcotest.(check string) "header preserved" "abc"
    (String.sub (Bitbuf.to_string padded) 0 3);
  Alcotest.(check int) "no shrink" 3 (Bitbuf.length (Fixtures.pad_to hdr 2))

let test_workload_poisson () =
  let arrivals = Fixtures.poisson_arrivals ~seed:1L ~rate:10.0 ~count:100 in
  Alcotest.(check int) "count" 100 (List.length arrivals);
  let times = List.map (fun (a : Fixtures.arrival) -> a.time) arrivals in
  let sorted = List.sort compare times in
  Alcotest.(check bool) "monotone" true (times = sorted);
  (* Mean inter-arrival should be near 1/rate. *)
  let last = List.nth times 99 in
  Alcotest.(check bool) "plausible horizon" true (last > 2.0 && last < 50.0)

let test_workload_constant () =
  let a = Fixtures.constant_arrivals ~interval:0.5 ~count:4 in
  Alcotest.(check (list (float 1e-9))) "times" [ 0.0; 0.5; 1.0; 1.5 ]
    (List.map (fun (x : Fixtures.arrival) -> x.time) a)

let test_workload_zipf () =
  let names = Workload.zipf_names ~seed:2L ~catalog:50 ~count:1000 ~skew:1.0 in
  Alcotest.(check int) "count" 1000 (List.length names);
  let top = Workload.catalog_name 1 in
  let hits = List.length (List.filter (Dip_tables.Name.equal top) names) in
  Alcotest.(check bool) "head item popular" true (hits > 50)

let () =
  Alcotest.run "netsim"
    [
      ( "event-queue",
        [
          Alcotest.test_case "ordering" `Quick test_eq_ordering;
          Alcotest.test_case "fifo ties" `Quick test_eq_fifo_ties;
          Alcotest.test_case "peek/size" `Quick test_eq_peek;
          Alcotest.test_case "invalid times" `Quick test_eq_invalid_times;
          Alcotest.test_case "random stress" `Quick test_eq_many_random;
          QCheck_alcotest.to_alcotest prop_eq_fifo_ties_and_cleared_slots;
          QCheck_alcotest.to_alcotest prop_eq_model;
          Alcotest.test_case "push/drop allocation-free" `Quick
            test_eq_push_drop_no_alloc;
          Alcotest.test_case "reserve_seq and min_seq" `Quick test_eq_reserve_seq;
        ] );
      ( "sim",
        [
          Alcotest.test_case "linear delivery" `Quick test_sim_linear_delivery;
          Alcotest.test_case "counters" `Quick test_sim_counters;
          Alcotest.test_case "drop counted" `Quick test_sim_drop_counted;
          Alcotest.test_case "unwired port" `Quick test_sim_unwired_port;
          Alcotest.test_case "bandwidth delay" `Quick test_sim_bandwidth_delay;
          Alcotest.test_case "double wire rejected" `Quick test_sim_double_wire_rejected;
          Alcotest.test_case "timer" `Quick test_sim_timer;
          Alcotest.test_case "no events in the past" `Quick
            test_sim_no_past_events;
          Alcotest.test_case "run until" `Quick test_sim_run_until;
          Alcotest.test_case "consume hook" `Quick test_sim_on_consume_hook;
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
          Alcotest.test_case "serialization queueing" `Quick test_sim_serialization_queueing;
          Alcotest.test_case "queue overflow" `Quick test_sim_queue_overflow;
          Alcotest.test_case "queue overflow infinite bw" `Quick
            test_sim_queue_overflow_infinite_bw;
          Alcotest.test_case "in-flight count infinite bw" `Quick
            test_sim_counters_infinite_bw_in_flight;
          Alcotest.test_case "queue depth observable" `Quick test_sim_queue_depth_observable;
          Alcotest.test_case "batched window keeps the clock monotone" `Quick
            test_batched_clock_monotone;
        ] );
      ( "departures",
        [
          Alcotest.test_case "tie order at the departure instant" `Quick
            test_departure_tie_order;
          Alcotest.test_case "run until between departure and arrival" `Quick
            test_departure_run_until;
          QCheck_alcotest.to_alcotest prop_departures_match_reference;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "one-packet ping-pong" `Quick test_ping_pong_alloc;
          Alcotest.test_case "many packets queued on one link" `Quick
            test_queued_link_alloc;
        ] );
      ( "topology",
        [
          Alcotest.test_case "linear" `Quick test_topo_linear;
          Alcotest.test_case "star" `Quick test_topo_star;
          Alcotest.test_case "dumbbell" `Quick test_topo_dumbbell;
          Alcotest.test_case "random connected" `Quick test_topo_random_connected;
          Alcotest.test_case "next hop" `Quick test_topo_next_hop;
          Alcotest.test_case "instantiate" `Quick test_topo_instantiate;
        ] );
      ( "trace",
        [
          Alcotest.test_case "journey" `Quick test_trace_journey;
          Alcotest.test_case "drop recorded" `Quick test_trace_drop_recorded;
          Alcotest.test_case "event cap" `Quick test_trace_event_cap;
          Alcotest.test_case "journey isolated" `Quick
            test_trace_journey_isolated;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
      ( "workload",
        [
          Alcotest.test_case "paper sizes" `Quick test_workload_sizes;
          Alcotest.test_case "pad_to" `Quick test_workload_pad;
          Alcotest.test_case "poisson" `Quick test_workload_poisson;
          Alcotest.test_case "constant" `Quick test_workload_constant;
          Alcotest.test_case "zipf" `Quick test_workload_zipf;
        ] );
    ]

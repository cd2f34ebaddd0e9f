(* Tests for Dip_obs.Flight, the per-domain flight recorder: the
   event registry, ring overwrite/drain semantics (qcheck), the
   no-tearing property under parallel recording (3 domains, private
   rings), the Chrome trace-event exporter (validated with a real
   JSON parser, counts round-tripped), and the end-to-end layer
   coverage of a flight-recorded parallel chain run — the regression
   behind `dip profile`. *)

open Dip_core
module Flight = Dip_obs.Flight
module Export = Dip_obs.Export
module Metrics = Dip_obs.Metrics
module Mcore = Dip_mcore
module Sim = Dip_netsim.Sim
module Ipaddr = Dip_tables.Ipaddr

let v4 = Ipaddr.V4.of_string
let registry = Ops.default_registry ()

(* --- registry --- *)

let test_register_idempotent () =
  let a = Flight.register ~kind:Flight.Span "test.reg.alpha" in
  let b = Flight.register ~kind:Flight.Instant "test.reg.alpha" in
  Alcotest.(check bool) "same name, same id" true (a = b);
  Alcotest.(check string) "name survives" "test.reg.alpha" (Flight.id_name a);
  (* First registration wins the kind. *)
  Alcotest.(check bool) "first kind wins" true (Flight.id_kind a = Flight.Span);
  let c = Flight.register "test.reg.beta" in
  Alcotest.(check bool) "fresh name, fresh id" true (a <> c);
  Alcotest.(check bool) "default kind is Instant" true
    (Flight.id_kind c = Flight.Instant);
  Alcotest.(check bool) "registered lists both" true
    (List.exists (fun (n, _) -> n = "test.reg.alpha") (Flight.registered ())
    && List.exists (fun (n, _) -> n = "test.reg.beta") (Flight.registered ()))

(* --- ring drain semantics (qcheck) --- *)

let ev_q = Flight.register "test.ring.q"

(* Whatever the write count, a drain returns exactly the newest
   [min n capacity] events, oldest first, with monotone timestamps
   and the overwritten remainder accounted as dropped. *)
let qcheck_drain =
  QCheck.Test.make ~count:60 ~name:"ring drains newest events in order"
    QCheck.(pair (int_range 0 3000) (int_range 8 256))
    (fun (n, cap) ->
      let r = Flight.create ~capacity:cap ~pid:1 ~tid:2 () in
      let cap = Flight.capacity r in
      for k = 0 to n - 1 do
        Flight.record r ev_q k (k * 2) (k * 3)
      done;
      let evs = Flight.events r in
      let expect = min n cap in
      let first = max 0 (n - cap) in
      List.length evs = expect
      && Flight.recorded r = n
      && Flight.dropped r = max 0 (n - cap)
      && List.for_all (fun e -> e.Flight.ev_pid = 1 && e.Flight.ev_tid = 2) evs
      && (let ok = ref true and k = ref first and last = ref min_int in
          List.iter
            (fun e ->
              if
                e.Flight.ev_a0 <> !k
                || e.Flight.ev_a1 <> !k * 2
                || e.Flight.ev_a2 <> !k * 3
                || e.Flight.ev_ts < !last
              then ok := false;
              last := e.Flight.ev_ts;
              incr k)
            evs;
          !ok))

let test_clear () =
  let r = Flight.create ~capacity:16 ~pid:0 ~tid:0 () in
  for k = 0 to 99 do
    Flight.record r ev_q k 0 0
  done;
  Flight.clear r;
  Alcotest.(check int) "no events after clear" 0
    (List.length (Flight.events r));
  Alcotest.(check int) "recorded reset" 0 (Flight.recorded r);
  Flight.record r ev_q 7 0 0;
  Alcotest.(check int) "records again" 1 (List.length (Flight.events r))

(* --- no tearing across domains --- *)

let ev_tear = Flight.register "test.ring.tear"

(* Three domains hammer their own rings past capacity. Rings are
   single-writer, so every drained event must be internally
   consistent: the operands are all derived from the loop index, and
   any torn slot (operands from different writes) breaks the
   relation. *)
let test_no_tearing () =
  let domains = 3 and m = 40_000 and cap = 1024 in
  let rings =
    Array.init domains (fun d -> Flight.create ~capacity:cap ~pid:9 ~tid:d ())
  in
  let work d () =
    let r = rings.(d) in
    for k = 0 to m - 1 do
      Flight.record r ev_tear k ((2 * k) + d) (k lxor 0x5A)
    done
  in
  let spawned = Array.init domains (fun d -> Domain.spawn (work d)) in
  Array.iter Domain.join spawned;
  Array.iteri
    (fun d r ->
      let evs = Flight.events r in
      Alcotest.(check int)
        (Printf.sprintf "domain %d drains a full ring" d)
        cap (List.length evs);
      Alcotest.(check int)
        (Printf.sprintf "domain %d dropped the rest" d)
        (m - cap) (Flight.dropped r);
      List.iter
        (fun e ->
          let k = e.Flight.ev_a0 in
          if
            e.Flight.ev_id <> ev_tear
            || e.Flight.ev_a1 <> (2 * k) + d
            || e.Flight.ev_a2 <> k lxor 0x5A
          then
            Alcotest.failf "domain %d: torn event (a0=%d a1=%d a2=%d)" d k
              e.Flight.ev_a1 e.Flight.ev_a2)
        evs)
    rings

let test_merge_sorted () =
  let a = Flight.create ~capacity:64 ~pid:0 ~tid:0 () in
  let b = Flight.create ~capacity:64 ~pid:0 ~tid:1 () in
  for k = 0 to 49 do
    Flight.record (if k mod 2 = 0 then a else b) ev_q k 0 0
  done;
  let merged = Flight.merge [ a; b ] in
  Alcotest.(check int) "all events merged" 50 (List.length merged);
  let last = ref min_int in
  List.iter
    (fun e ->
      Alcotest.(check bool) "merged timestamps monotone" true
        (e.Flight.ev_ts >= !last);
      last := e.Flight.ev_ts)
    merged

(* An engine observer with a ring and sample_every:1 records one
   engine.process span per packet, drained in timestamp order. *)
let test_engine_spans_drain () =
  let ring = Flight.create ~pid:0 ~tid:0 () in
  let obs = Obs.create ~sample_every:1 ~flight:ring (Metrics.create ()) in
  let env = Env.create ~name:"r" () in
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
  Progcache.set_flight env.Env.prog_cache (Some ring);
  let pkt = Realize.ipv4 ~src:(v4 "192.0.2.1") ~dst:(v4 "10.1.2.3") ~payload:"x" () in
  for _ = 1 to 10 do
    Dip_bitbuf.Bitbuf.set_uint8 pkt 2 64;
    ignore (Engine.process ~obs ~registry env ~now:0.0 ~ingress:0 pkt)
  done;
  let events = Flight.events ring in
  Alcotest.(check int) "one span per packet" 10
    (List.length
       (List.filter (fun e -> Flight.id_name e.Flight.ev_id = "engine.process") events));
  ignore
    (List.fold_left
       (fun last e ->
         Alcotest.(check bool) "drained in timestamp order" true (e.Flight.ev_ts >= last);
         e.Flight.ev_ts)
       min_int events)

(* --- Chrome trace export: real JSON, counts round-trip --- *)

(* A small strict JSON parser — enough to validate the exporter's
   output structurally rather than by substring. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n
        && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t'
          || s.[!pos] = '\r')
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else raise (Bad (Printf.sprintf "expected %c at %d" c !pos))
    in
    let lit l v =
      if !pos + String.length l <= n && String.sub s !pos (String.length l) = l
      then (
        pos := !pos + String.length l;
        v)
      else raise (Bad "bad literal")
    in
    let string_ () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then raise (Bad "unterminated string");
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then raise (Bad "bad escape");
            (match s.[!pos] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                if !pos + 4 >= n then raise (Bad "bad \\u");
                pos := !pos + 4;
                Buffer.add_char b '?'
            | c -> raise (Bad (Printf.sprintf "bad escape %c" c)));
            incr pos;
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      while
        !pos < n
        && (match s.[!pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr pos
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> raise (Bad "bad number")
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then (
            incr pos;
            Obj [])
          else
            let rec members acc =
              skip_ws ();
              let k = string_ () in
              skip_ws ();
              expect ':';
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  members ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  Obj (List.rev ((k, v) :: acc))
              | _ -> raise (Bad "bad object")
            in
            members []
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then (
            incr pos;
            Arr [])
          else
            let rec elems acc =
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  elems (v :: acc)
              | Some ']' ->
                  incr pos;
                  Arr (List.rev (v :: acc))
              | _ -> raise (Bad "bad array")
            in
            elems []
      | Some '"' -> Str (string_ ())
      | Some 't' -> lit "true" (Bool true)
      | Some 'f' -> lit "false" (Bool false)
      | Some 'n' -> lit "null" Null
      | Some _ -> Num (number ())
      | None -> raise (Bad "eof")
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v
end

let ev_span = Flight.register ~kind:Flight.Span "test.export.span"
let ev_inst = Flight.register "test.export.instant"
let ev_ctr = Flight.register ~kind:Flight.Counter "test.export.counter"

let test_chrome_trace_roundtrip () =
  let r = Flight.create ~capacity:256 ~pid:3 ~tid:1 () in
  for k = 0 to 19 do
    Flight.record r ev_span (100 + k) k 0;
    Flight.record r ev_inst k (k * 2) (k * 3);
    Flight.record r ev_ctr k 0 0
  done;
  let events = Flight.events r in
  let doc =
    Json.parse (Export.chrome_trace ~pid_names:[ (3, "node-three") ] events)
  in
  let trace_events =
    match doc with
    | Json.Obj fields -> (
        match List.assoc_opt "traceEvents" fields with
        | Some (Json.Arr l) -> l
        | _ -> Alcotest.fail "traceEvents missing or not an array")
    | _ -> Alcotest.fail "top level is not an object"
  in
  let field name obj =
    match obj with
    | Json.Obj fields -> List.assoc_opt name fields
    | _ -> None
  in
  let ph obj =
    match field "ph" obj with Some (Json.Str s) -> s | _ -> "?"
  in
  let data = List.filter (fun o -> ph o <> "M") trace_events in
  Alcotest.(check int) "one trace record per event" (List.length events)
    (List.length data);
  let count p = List.length (List.filter p data) in
  Alcotest.(check int) "spans become X" 20 (count (fun o -> ph o = "X"));
  Alcotest.(check int) "instants become i" 20 (count (fun o -> ph o = "i"));
  Alcotest.(check int) "counters become C" 20 (count (fun o -> ph o = "C"));
  (* Metadata: a process_name for pid 3 and a thread label. *)
  let meta = List.filter (fun o -> ph o = "M") trace_events in
  Alcotest.(check bool) "process_name present" true
    (List.exists
       (fun o ->
         field "name" o = Some (Json.Str "process_name")
         && field "pid" o = Some (Json.Num 3.0))
       meta);
  (* Spans carry their duration in microseconds and non-negative
     rebased timestamps. *)
  List.iter
    (fun o ->
      if ph o = "X" then begin
        (match field "dur" o with
        | Some (Json.Num d) ->
            Alcotest.(check bool) "dur in [0.1, 0.119] us" true
              (d >= 0.09 && d <= 0.12)
        | _ -> Alcotest.fail "span without dur");
        match field "ts" o with
        | Some (Json.Num ts) ->
            Alcotest.(check bool) "ts rebased to >= 0" true (ts >= 0.0)
        | _ -> Alcotest.fail "span without ts"
      end)
    data

(* --- end-to-end: the `dip profile` layer-coverage regression --- *)

let mk_env _w =
  let env = Env.create ~name:"flight-test" () in
  Dip_ip.Ipv4.add_route env.Env.v4_routes
    (Ipaddr.Prefix.of_string "10.0.0.0/8")
    1;
  env

let mk_pkt flow =
  Realize.ipv4 ~src:(v4 "192.0.2.1")
    ~dst:(v4 (Printf.sprintf "10.0.%d.%d" (flow / 250) (1 + (flow mod 250))))
    ~payload:"flight" ()

(* A 2-router chain with 2-domain pools, flight recorder armed
   everywhere, one mid-run epoch republish: the merged timeline must
   contain events from every instrumented layer, from at least two
   distinct lanes. This is exactly what `dip profile` asserts its
   trace on. *)
let test_profile_layer_coverage () =
  let sim = Sim.create () in
  let sim_ring = Flight.create ~pid:0 ~tid:0 () in
  Sim.set_flight sim (Some sim_ring);
  let snaps =
    List.init 2 (fun _ -> Mcore.Snapshot.v ~registry ~mk_env ())
  in
  let pools =
    List.mapi
      (fun i snap ->
        Mcore.Pool.create ~domains:2 ~metrics:true ~obs_sample_every:1
          ~flight:(i + 1) snap)
      snaps
  in
  let sink _sim ~now:_ ~ingress:_ _pkt = [ Sim.Consume ] in
  let handler_of pool _sim ~now ~ingress pkt =
    (Mcore.Pool.handle_batch pool [| { Mcore.Pool.now; ingress; pkt } |]).(0)
  in
  let ids =
    List.mapi
      (fun i pool ->
        Sim.add_node sim ~name:(Printf.sprintf "r%d" (i + 1)) (handler_of pool))
      pools
  in
  let sink_id = Sim.add_node sim ~name:"sink" sink in
  (match ids with
  | [ a; b ] ->
      Sim.connect sim (a, 1) (b, 0);
      Sim.connect sim (b, 1) (sink_id, 0)
  | _ -> assert false);
  let count = 400 in
  for k = 0 to count - 1 do
    Sim.inject sim
      ~at:(float_of_int k *. 1e-6)
      ~node:(List.hd ids) ~port:0
      (mk_pkt (k mod 64))
  done;
  Sim.schedule sim
    ~at:(float_of_int (count / 2) *. 1e-6)
    (fun _ ->
      List.iter2
        (fun snap pool ->
          match Mcore.Pool.publish pool (Mcore.Snapshot.next snap) with
          | Ok () -> ()
          | Error e -> Alcotest.failf "republish rejected: %s" e)
        snaps pools);
  Mcore.Runner.run_parallel ~window:16e-6 sim
    ~pools:(List.combine ids pools);
  let events =
    Flight.merge (sim_ring :: List.concat_map Mcore.Pool.flight_rings pools)
  in
  let has prefix =
    List.exists
      (fun e ->
        let name = Flight.id_name e.Flight.ev_id in
        String.length name >= String.length prefix
        && String.sub name 0 (String.length prefix) = prefix)
      events
  in
  List.iter
    (fun prefix ->
      Alcotest.(check bool) (prefix ^ " events present") true (has prefix))
    [
      "engine.process"; "progcache."; "pool.dispatch"; "pool.execute";
      "pool.await"; "pool.publish"; "sim.window."; "gc.";
    ];
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.Flight.ev_tid) events)
  in
  Alcotest.(check bool) "events from at least two lanes" true
    (List.length tids >= 2);
  (* The hand-off digest exists and covers the dispatches. *)
  List.iter
    (fun pool ->
      match Mcore.Pool.timeline_summary pool with
      | None -> Alcotest.fail "armed pool has no timeline summary"
      | Some s ->
          Alcotest.(check bool) "dispatch lane non-empty" true
            (s.Mcore.Pool.dispatch.Mcore.Pool.count > 0);
          Alcotest.(check int) "one lane per worker" 2
            (List.length s.Mcore.Pool.lanes))
    pools;
  (* Epoch-swap telemetry on the pool-lifetime metrics: one publish,
     gauge at the new epoch, per-worker GC counters exported. *)
  List.iter
    (fun pool ->
      match Mcore.Pool.metrics pool with
      | None -> Alcotest.fail "metrics requested but absent"
      | Some m ->
          let snap = Metrics.snapshot m in
          let value name =
            match List.find_opt (fun (n, _, _) -> n = name) snap with
            | Some (_, _, Metrics.Counter_v v) | Some (_, _, Metrics.Gauge_v v)
              ->
                Some v
            | _ -> None
          in
          Alcotest.(check (option int)) "publish counted" (Some 1)
            (value "pool.publish.count");
          Alcotest.(check (option int)) "epoch gauge at 1" (Some 1)
            (value "pool.epoch");
          Alcotest.(check bool) "gc gauges exported" true
            (value "pool.worker0.gc.minor_collections" <> None
            && value "pool.worker1.gc.minor_collections" <> None))
    pools;
  List.iter Mcore.Pool.shutdown pools

let () =
  Alcotest.run "dip-flight"
    [
      ( "registry",
        [
          Alcotest.test_case "register idempotent" `Quick
            test_register_idempotent;
        ] );
      ( "ring",
        [
          QCheck_alcotest.to_alcotest qcheck_drain;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "no tearing across 3 domains" `Quick
            test_no_tearing;
          Alcotest.test_case "merge sorts by timestamp" `Quick
            test_merge_sorted;
          Alcotest.test_case "engine spans drain in order" `Quick
            test_engine_spans_drain;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace round-trips" `Quick
            test_chrome_trace_roundtrip;
        ] );
      ( "profile",
        [
          Alcotest.test_case "layer coverage of a recorded run" `Quick
            test_profile_layer_coverage;
        ] );
    ]

(* perfbench: the repository's benchmark. One run measures one
   workload and prints, as its last line, one JSON object: the
   end-to-end metrics, measured with tracing off (--trace 0), or the
   per-layer ladder from a traced run (--trace 1). The line before it
   is the machine record.

     bench.exe run --workload W --seed N --seconds S --trace 0|1
                   [--trace-dir DIR] [--nproc N] [--commit ID]
     bench.exe selftest

   Everything runs in this one process on one domain: the
   domain-parallel data plane (Dip_mcore) is out of scope on a 2-core
   machine, where a worker pool beside the generator would measure the
   scheduler. *)

open Harness

let workloads =
  [
    ("fib1m-dip32", Fib1m.run);
    ("fnmix", Fnmix.run);
    ("fattree-k8", Fattree.run);
    ("dtn-custody", Dtn.run);
  ]

let e2e_units =
  [
    ("setup_s", "s");
    ("pkts_per_s", "pkt/s");
    ("mem_mb", "MB");
    ("ok_ratio", "fraction");
    ("pkt_ns_p50", "ns");
    ("pkt_ns_p99", "ns");
    ("tx_per_delivery", "tx/pkt");
    ("sim_lat_p50_s", "s");
    ("sim_lat_p99_s", "s");
  ]

(* Every per-layer metric, in BENCHMARK.json's order. A layer a
   workload does not exercise reads 0 there (custody counts outside
   dtn-custody, for instance). *)
let layer_units =
  [
    ("parse.cold_ns", "ns");
    ("progcache.hinted_ns", "ns");
    ("progcache.alloc_words", "words");
    ("progcache.hit_ratio", "fraction");
    ("progcache.evict_per_kpkt", "count");
    ("verify.ns_per_miss", "ns");
    ("engine.ns", "ns");
    ("engine.dispatch_self_ns", "ns");
    ("engine.alloc_words", "words");
  ]
  @ List.map
      (fun k -> ("engine.ns." ^ Fnmix.kind_name k, "ns"))
      (Array.to_list Fnmix.kinds)
  @ [
      ("fib.lookup_ns", "ns");
      ("fib.insert_ns", "ns");
      ("fib.bytes_per_route", "B");
      ("sim.handler_ns", "ns");
      ("sim.process_ns", "ns");
      ("sim.publish_ns", "ns");
      ("sim.verdict_ns", "ns");
      ("sim.self_ns_per_arrival", "ns");
      ("sim.arrivals_per_delivery", "count");
      ("sim.alloc_words_per_arrival", "words");
      ("topology.routes_s", "s");
      ("topology.instantiate_s", "s");
      ("custody.take", "count");
      ("custody.replay", "count");
      ("custody.evict", "count");
      ("custody.high_water", "count");
      ("reliable.retx_per_bundle", "count");
      ("faults.injected", "count");
      ("ladder.residual_pct", "%");
      ("trace.overhead_pct", "%");
    ]

(* The pace kernel timed ten times at start: its wall time beside the
   results makes drift of a shared machine visible. *)
let reference_kernel_ms () =
  let t0 = clock () in
  for _ = 1 to 10 do
    Pace.kernel ()
  done;
  float_of_int (clock () - t0) /. 1e6

let json_num v =
  if not (Float.is_finite v) then "0.0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_metrics units values =
  String.concat ", "
    (List.map
       (fun (name, unit) ->
         let v = Option.value ~default:0.0 (List.assoc_opt name values) in
         Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_num v) unit)
       units)

let usage msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline
    "usage: bench.exe run --workload W --seed N --seconds S --trace 0|1 \
     [--trace-dir DIR] [--nproc N] [--commit ID]\n\
    \       bench.exe selftest";
  exit 2

let run_one args =
  let tbl = Hashtbl.create 8 in
  let rec parse = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        parse rest
    | [] -> ()
    | a :: _ -> usage ("unexpected argument " ^ a)
  in
  parse args;
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage ("missing --" ^ k) in
  let opt k d = Option.value ~default:d (Hashtbl.find_opt tbl k) in
  let workload = get "workload" in
  let run =
    match List.assoc_opt workload workloads with
    | Some r -> r
    | None -> usage ("unknown workload " ^ workload)
  in
  let seed = try Int64.of_string (get "seed") with Failure _ -> usage "bad --seed" in
  let seconds =
    try float_of_string (get "seconds") with Failure _ -> usage "bad --seconds"
  in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage "--trace is 0 or 1"
  in
  let ref_ms = reference_kernel_ms () in
  let tracer = if trace then Some (tracer ()) else None in
  let r = run ~scale:Full ~seed ~seconds ~tracer in
  (match tracer with
  | Some tr ->
      let path =
        Filename.concat (opt "trace-dir" ".")
          (Printf.sprintf "trace-%s-%Ld.json" workload seed)
      in
      write_trace tr ~path;
      Printf.printf "trace: %d spans recorded, %d dropped by the Flight ring, written to %s\n"
        (Flight.recorded tr.ring) (Flight.dropped tr.ring) path
  | None -> ());
  Printf.printf "digest %s\n" r.digest;
  Printf.printf
    "{\"machine\": {\"nproc\": %s, \"recommended_domain_count\": %d, \"ocaml\": \"%s\", \
     \"commit\": \"%s\", \"reference_kernel_ms\": %s}}\n"
    (opt "nproc" "0") (Domain.recommended_domain_count ()) Sys.ocaml_version
    (opt "commit" "unknown") (json_num ref_ms);
  let correct = r.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 r.attempted) r.failed
    (if trace then json_metrics layer_units r.layers else json_metrics e2e_units r.e2e);
  if not correct then exit 1

(* Each workload twice at reduced scale with one seed: every exact
   output and the digest must repeat bit for bit, every output check
   must pass, and another seed must change the digest. The other seed
   runs first, so process-wide tables the libraries fill on first use
   are warm for both repeats. *)
let selftest () =
  let bits (k, v) = (k, Int64.bits_of_float v) in
  let ok =
    List.fold_left
      (fun ok (name, run) ->
        let go seed = run ~scale:Small ~seed ~seconds:0.2 ~tracer:None in
        let c = go 12L in
        let a = go 11L in
        let b = go 11L in
        let repeat = List.map bits a.exact = List.map bits b.exact && a.digest = b.digest in
        let moves = a.digest <> c.digest in
        let clean = a.failed = 0 && b.failed = 0 && c.failed = 0 in
        Printf.printf "selftest %s: repeat %b, another seed changes the digest %b, checks %b\n"
          name repeat moves clean;
        List.iter2
          (fun (k, x) (_, y) -> Printf.printf "  %-28s %.17g %.17g\n" k x y)
          a.exact b.exact;
        ok && repeat && moves && clean)
      true workloads
  in
  if not ok then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "selftest" :: _ -> selftest ()
  | "run" :: args -> run_one args
  | _ -> usage "expected run or selftest"

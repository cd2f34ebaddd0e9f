(* Shared plumbing for the workloads: the wall clock, robust
   statistics, the machine's pace, timed phases, heap accounting,
   Flight spans, ladder helpers and the result record every workload
   returns. *)

module Flight = Dip_obs.Flight

(* Monotonic nanoseconds as a native int: a noalloc read, so it can
   sit inside timed regions. *)
let clock = Flight.now

let ns_of_s s = int_of_float (s *. 1e9)
let s_of_ns ns = float_of_int ns /. 1e9

type scale = Full | Small

type result = {
  attempted : int;  (** packets or bundles offered *)
  failed : int;  (** offered ones whose checked outcome was wrong *)
  e2e : (string * float) list;  (** end-to-end metrics, by name *)
  layers : (string * float) list;  (** per-layer metrics; traced runs only *)
  exact : (string * float) list;
      (** outputs that must repeat bit for bit for one seed *)
  digest : string;  (** hash of every checked output *)
}

let registry = Dip_core.Ops.default_registry ()

(* --- statistics ---------------------------------------------------- *)

(* Hyndman-Fan type 7 (numpy's default) over a sorted copy. *)
let quantile a q =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then 0.0
  else
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median a = quantile a 0.5

(* A growable float vector. *)
module Fvec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  (* Inlined so the float stays unboxed: recording allocates nothing
     on the minor heap, keeping the workloads' allocation counts exact
     whatever the run's timing. *)
  let[@inline] add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
  let length t = t.n
end

(* The machine's pace. The machine this benchmark was tuned on, a
   2-vCPU share of a busy host, runs the same code up to twice as slow
   for stretches of seconds to minutes, as neighbours load the caches,
   the memory bus and the cores' sibling threads. Timed alone, a run's
   throughput moved by a third from run to run. So after every window
   of timed work a fixed kernel of the benchmark's own is timed, and
   the window's wall time is rescaled to the kernel's nominal pace.
   About half of the kernel's time goes to lookups of string keys in a
   hash table and writes to an 8 MB array, with small allocations, as
   in the simulator's own loop; the other half to arithmetic on an
   L2-sized array. Over windows of the three workloads, this mix
   tracked their slowdowns more closely than either half alone. *)
module Pace = struct
  let keys = Array.init 65536 (fun i -> string_of_int (i * 7919))

  let tbl =
    let t = Hashtbl.create 65536 in
    Array.iteri (fun i k -> Hashtbl.replace t k i) keys;
    t

  let big = Array.make (1 lsl 20) 0
  let small = Array.make 65536 0
  let x = ref 0x2545F491

  let[@inline] next () =
    x := !x lxor (!x lsl 13) land max_int;
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17) land max_int;
    !x

  let kernel () =
    let s = ref 0 in
    for _ = 1 to 20_000 do
      let r = next () in
      (match Hashtbl.find_opt tbl keys.(r land 65535) with Some v -> s := !s + v | None -> ());
      let j = (r lsr 16) land ((1 lsl 20) - 1) in
      big.(j) <- big.(j) + 1;
      s := !s + List.length (List.init 3 (fun k -> k + r))
    done;
    ignore (Sys.opaque_identity !s);
    for i = 1 to 1_200_000 do
      let j = next () land 65535 in
      small.(j) <- small.(j) + i
    done

  (* About the kernel's wall time on the machine above (a 2.1 GHz Xeon
     VM); only the scale of the figures depends on it. *)
  let nominal_ns = 12e6

  (* What one nanosecond of wall time measured now is worth at the
     nominal pace. *)
  let factor () =
    let t0 = clock () in
    kernel ();
    nominal_ns /. float_of_int (max 1 (clock () - t0))
end

(* A timed phase: wall time per packet over fixed-size groups, cut
   into windows of [window_ns] of timed work. When a window closes, its
   time and its groups' times are rescaled by [Pace.factor]. Throughput
   is the median over the windows; p50/p99 are taken over every group.
   A window holds many whole groups -- several passes over fnmix's
   ring, one or more Sim.run rounds -- so work the program itself adds
   (collections, cache evictions, retransmits) recurs in every window. *)
module Phase = struct
  type t = {
    window_ns : int;
    groups : Fvec.t;  (** ns per packet, one entry per group *)
    rates : Fvec.t;  (** packets per second at the nominal pace, per window *)
    mutable total_ns : int;  (** wall time, not rescaled *)
    mutable total_pkts : int;
    mutable cur_ns : int;
    mutable cur_pkts : int;
    mutable cur_g0 : int;
  }

  let create ?(window_ns = 250_000_000) () =
    {
      window_ns;
      groups = Fvec.create ();
      rates = Fvec.create ();
      total_ns = 0;
      total_pkts = 0;
      cur_ns = 0;
      cur_pkts = 0;
      cur_g0 = 0;
    }

  (* A group timed apart from the totals (the simulator workloads time
     arrivals in groups but count deliveries per Sim.run). *)
  let[@inline] sample t ns_per_pkt = Fvec.add t.groups ns_per_pkt

  let close t =
    let f = Pace.factor () in
    let g = t.groups in
    for i = t.cur_g0 to g.Fvec.n - 1 do
      g.Fvec.a.(i) <- g.Fvec.a.(i) *. f
    done;
    Fvec.add t.rates (1e9 *. float_of_int t.cur_pkts /. (float_of_int (max 1 t.cur_ns) *. f));
    t.cur_ns <- 0;
    t.cur_pkts <- 0;
    t.cur_g0 <- g.Fvec.n

  let[@inline] add t ~ns ~pkts =
    t.total_ns <- t.total_ns + ns;
    t.total_pkts <- t.total_pkts + pkts;
    t.cur_ns <- t.cur_ns + ns;
    t.cur_pkts <- t.cur_pkts + pkts;
    if t.cur_ns >= t.window_ns then close t

  let[@inline] group t ~ns ~pkts =
    Fvec.add t.groups (float_of_int ns /. float_of_int pkts);
    add t ~ns ~pkts

  (* Close the last, partial window. *)
  let finish t = if t.cur_pkts > 0 then close t

  let pps t =
    finish t;
    median (Fvec.to_array t.rates)

  let p50 t =
    finish t;
    median (Fvec.to_array t.groups)

  let p99 t =
    finish t;
    quantile (Fvec.to_array t.groups) 0.99

  let report name t =
    Printf.printf "%s: %d windows of %.0f ms, %.6g pkt/s at the nominal pace, %.6g pkt/s of wall time\n"
      name (Fvec.length t.rates) (float_of_int t.window_ns /. 1e6) (pps t)
      (1e9 *. float_of_int t.total_pkts /. float_of_int (max 1 t.total_ns))

  (* Heap bytes of the phase's own vectors, which grow with the run's
     length: taken out of mem_mb, which measures the program's state. *)
  let bytes t = Sys.word_size / 8 * (Array.length t.groups.Fvec.a + Array.length t.rates.Fvec.a)

  (* Wall time per packet, not rescaled: the ladder compares it with
     layer times measured the same way. *)
  let mean_ns t =
    if t.total_pkts = 0 then 0.0
    else float_of_int t.total_ns /. float_of_int t.total_pkts
end

(* Set-up timed like a phase, one set-up per packet in 10 ms windows:
   repeated for [setup_span] seconds and at least five times, from a
   collected heap each time. Returns seconds per set-up at the nominal
   pace, and the last set-up's result. *)
let setup_span = 2.0

let time_setups f =
  let ph = Phase.create ~window_ns:10_000_000 () in
  let last = ref None and reps = ref 0 in
  let until = clock () + ns_of_s setup_span in
  while clock () < until || !reps < 5 do
    last := None;
    Gc.full_major ();
    let t0 = clock () in
    let r = f () in
    Phase.add ph ~ns:(clock () - t0) ~pkts:1;
    last := Some r;
    incr reps
  done;
  (1.0 /. Phase.pps ph, Option.get !last)

(* --- heap ---------------------------------------------------------- *)

(* Live major-heap bytes after a full collection: the state reachable
   at this point, whatever the heap's earlier peak was. *)
let live_bytes () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

let mb bytes = float_of_int bytes /. 1e6

(* --- digests ------------------------------------------------------- *)

(* FNV-1a over the bytes of ints: order-sensitive, allocation-free. *)
let mix h x =
  let h = ref h and x = ref x in
  for _ = 1 to 8 do
    h := (!h lxor (!x land 0xff)) * 0x100000001b3;
    x := !x lsr 8
  done;
  !h land max_int

let digest_init = 0x4bf29ce484222325
let mix_float h f = mix h (Int64.to_int (Int64.bits_of_float f))
let hex h = Printf.sprintf "%016x" h

(* --- tracing ------------------------------------------------------- *)

(* Spans recorded from the benchmark's own files around calls into the
   program's layers. Flight convention: a span is recorded at its end
   with a0 = duration; here a1 = span id and a2 = parent id (0 for a
   root). *)
let ev_phase = Flight.register ~kind:Flight.Span "bench.phase"
let ev_group = Flight.register ~kind:Flight.Span "bench.group"
let ev_rung = Flight.register ~kind:Flight.Span "bench.rung"
let ev_handler = Flight.register ~kind:Flight.Span "bench.sim.handler"
let ev_process = Flight.register ~kind:Flight.Span "bench.engine.process"
let ev_publish = Flight.register ~kind:Flight.Span "bench.env.publish"
let ev_verdict = Flight.register ~kind:Flight.Span "bench.engine.verdict"

type tracer = { ring : Flight.ring; mutable next_id : int }

(* Spans a traced run may keep; the ring holds twice as many, so
   [Flight.dropped] stays 0. Workloads size their sampling to this. *)
let span_budget = 100_000

let tracer () =
  { ring = Flight.create ~capacity:(4 * span_budget) ~pid:1 ~tid:0 (); next_id = 1 }

let open_span tr =
  let id = tr.next_id in
  tr.next_id <- id + 1;
  id

let close_span tr ev ~id ~parent ~t0 =
  Flight.record tr.ring ev (clock () - t0) id parent

(* Run [f span_id] under a root-level span. *)
let spanned tr ev f =
  let t0 = clock () in
  let id = open_span tr in
  let r = f id in
  close_span tr ev ~id ~parent:0 ~t0;
  r

let write_trace tr ~path =
  let oc = open_out path in
  output_string oc
    (Dip_obs.Export.chrome_trace ~pid_names:[ (1, "perfbench") ]
       (Flight.events tr.ring));
  close_out oc

(* --- ladder helpers ------------------------------------------------ *)

let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let pct part whole = if whole = 0.0 then 0.0 else 100.0 *. part /. whole

(* Mean ns per call of [f i] over [0, n), the pass repeated until it
   has run for [min_ns]; the median of five such measurements. *)
let ns_per_call ?(min_ns = 10_000_000) n f =
  if n = 0 then 0.0
  else
    let once () =
      let calls = ref 0 in
      let t0 = clock () in
      while clock () - t0 < min_ns do
        for i = 0 to n - 1 do
          f i
        done;
        calls := !calls + n
      done;
      float_of_int (clock () - t0) /. float_of_int !calls
    in
    median (Array.init 5 (fun _ -> once ()))

(* Minor words allocated per call of [f i] over one pass of [0, n). *)
let words_per_call n f =
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int (max 1 n)

(* Print the ladder reconciliation: end-to-end ns per unit against
   the sum of the layers' self times; returns the residual in %. *)
let ladder ~workload ~unit ~e2e_ns parts =
  let sum = List.fold_left (fun acc (_, ns) -> acc +. ns) 0.0 parts in
  let residual = pct (e2e_ns -. sum) e2e_ns in
  Printf.printf "ladder %s: end-to-end %.1f ns/%s = %s + residual %.1f (%.1f%%)\n"
    workload e2e_ns unit
    (String.concat " + "
       (List.map (fun (name, ns) -> Printf.sprintf "%s %.1f" name ns) parts))
    (e2e_ns -. sum) residual;
  residual

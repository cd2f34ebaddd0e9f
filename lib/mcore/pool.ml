module Bitbuf = Dip_bitbuf.Bitbuf
module Engine = Dip_core.Engine
module Env = Dip_core.Env
module Obs = Dip_core.Obs
module Progcache = Dip_core.Progcache
module Metrics = Dip_obs.Metrics
module F = Dip_obs.Flight

type item = { now : float; ingress : Env.port; pkt : Bitbuf.t }

(* Flight event types for the hand-off. Ring layout: a pool
   with [flight] armed owns [ndomains + 1] rings — index 0 is the
   dispatcher lane (tid 0: dispatch / await / publish), index [w + 1]
   is worker [w]'s lane (tid [w + 1]: queue-wait / execute / engine /
   progcache / GC). Every ring has exactly one writing domain; a
   1-domain pool's dispatcher writes lanes 0 and 1 itself (it {e is}
   worker 0). *)
let ev_dispatch = F.register ~kind:F.Span "pool.dispatch"
let ev_queue_wait = F.register ~kind:F.Span "pool.queue_wait"
let ev_execute = F.register ~kind:F.Span "pool.execute"
let ev_await = F.register ~kind:F.Span "pool.await"
let ev_publish = F.register "pool.publish"
let ev_gc_minor = F.register ~kind:F.Counter "gc.minor_collections"
let ev_gc_promoted = F.register ~kind:F.Counter "gc.promoted_words"

(* Everything a worker reads per batch, swapped as one pointer
   (RCU-style): treat all of it as immutable once published. *)
type published = {
  snap : Snapshot.t;
  envs : Env.t array;
  obses : Obs.t option array;
  metricses : Metrics.t option array;
}

(* One dispatch's completion: a countdown over its live jobs. The
   dispatcher spins briefly then parks; the worker that brings the
   count to zero takes the lock and broadcasts — one lock/broadcast
   per dispatch, not per job, and none at all when the dispatcher is
   still spinning. *)
type completion = {
  pending : int Atomic.t; (* padded: decremented from every worker *)
  c_lock : Mutex.t;
  c_done : Condition.t;
}

(* One unit of work handed to a worker: its shard of a caller batch.
   [j_idxs.(k)] is where [j_items.(k)]'s result goes in the caller's
   arrays, so workers write results directly into caller-order slots
   and the dispatcher never reshuffles. The record and its item/index
   arrays are persistent per-worker scratch, built once at [create]
   (at most one dispatch is ever outstanding) — a dispatch writes
   fields, the worker reads them, and the dispatch resets them once
   it completes; nothing here is allocated per dispatch except the
   caller's result arrays. *)
type job = {
  mutable j_items : item array; (* first [j_count] entries valid *)
  mutable j_idxs : int array;
  mutable j_count : int;
  mutable j_verdicts : (Engine.verdict * Engine.info) array; (* caller-indexed *)
  mutable j_actions : Dip_netsim.Sim.action list array; (* caller-indexed; [||] if unwanted *)
  mutable j_want_actions : bool;
  mutable j_pub : published; (* pinned at dispatch time: the RCU contract *)
  mutable j_submit_ns : int; (* flight: dispatch stamp for queue-wait *)
}

type t = {
  ndomains : int;
  current : published Atomic.t;
  rings : job Spsc.t array; (* capacity 1: one dispatch outstanding *)
  stop : bool Atomic.t;
  mutable doms : unit Domain.t array;
  with_metrics : bool;
  obs_sample_every : int option;
  spin : int; (* busy-poll budget for workers and the dispatcher *)
  (* Dispatch scratch, written by the dispatcher only. *)
  jobs : job array; (* one per worker *)
  mutable shard_of : int array; (* grown to the batch size *)
  counts : int array; (* per-worker item counts for this dispatch *)
  fill : int array;
  comp : completion; (* the outstanding dispatch's countdown *)
  (* Counters/metrics of retired epochs, absorbed at publish time so
     a configuration swap does not silently zero the pool's history
     (the epoch's envs die with it otherwise). *)
  acc_counters : Metrics.t;
  acc_metrics : Metrics.t option;
  (* Flight lanes (see the ring-layout comment above); all [None]
     when the recorder is off, so the hot paths pay one array read. *)
  fl_rings : F.ring option array; (* length ndomains + 1 *)
  (* Epoch-swap visibility for the Metrics exporters. *)
  pub_counter : Metrics.counter option;
  epoch_gauge : Metrics.gauge option;
  (* Per-worker GC gauges, registered once in [acc_metrics] (gauges in
     per-epoch registries would double-count absolute readings when
     retired epochs are absorbed). Each gauge has exactly one writer:
     its worker's domain. *)
  gc_gauges : (Metrics.gauge * Metrics.gauge) option array;
}

(* [flights] are the worker lanes (slots 1.. of [fl_rings]): arming a
   worker's observer and program cache routes engine spans and cache
   events into that worker's private ring. An armed recorder forces
   per-worker observers even without [metrics] (the engine only
   records spans through an [Obs.t]); their registries then stay
   private scratch. *)
let build_published ?sample_every ~metrics ~flights snap ndomains =
  let metricses =
    Array.init ndomains (fun _ -> if metrics then Some (Metrics.create ()) else None)
  in
  let obses =
    Array.init ndomains (fun w ->
        match (metricses.(w), flights.(w)) with
        | None, None -> None
        | m_opt, fl ->
            let m =
              match m_opt with Some m -> m | None -> Metrics.create ()
            in
            Some (Obs.create ?sample_every ?flight:fl m))
  in
  let envs = Array.init ndomains snap.Snapshot.mk_env in
  Array.iteri
    (fun w env -> Progcache.set_flight env.Env.prog_cache flights.(w))
    envs;
  { snap; envs; obses; metricses }

(* Per-batch GC visibility from the executing domain: the absolute
   minor-collection and promoted-word readings as flight counters
   (the timeline shows exactly which windows a collection landed in)
   and, when metrics are on, as the worker's gauges. *)
let note_gc t w fl =
  if fl <> None || t.gc_gauges.(w) <> None then begin
    let s = Gc.quick_stat () in
    let minors = s.Gc.minor_collections in
    let promoted = int_of_float s.Gc.promoted_words in
    (match fl with
    | Some r ->
        F.record r ev_gc_minor minors w 0;
        F.record r ev_gc_promoted promoted w 0
    | None -> ());
    match t.gc_gauges.(w) with
    | Some (gm, gp) ->
        Metrics.Gauge.set gm minors;
        Metrics.Gauge.set gp promoted
    | None -> ()
  end

(* The shard executor: Algorithm 1 over one job on worker [w]'s
   environment of the world pinned into the job, results straight
   into the caller-order slots, then the per-batch publish, execute
   span and GC reading. The ring workers and the 1-domain inline path
   both run exactly this. *)
let run_shard t w job =
  let fl = t.fl_rings.(w + 1) in
  let x0 = match fl with None -> 0 | Some _ -> F.now () in
  let pub = job.j_pub in
  let env = pub.envs.(w) and obs = pub.obses.(w) in
  let verify = pub.snap.Snapshot.verify
  and registry = pub.snap.Snapshot.registry in
  let items = job.j_items and idxs = job.j_idxs in
  for k = 0 to job.j_count - 1 do
    let it = items.(k) in
    let ((verdict, _) as r) =
      Engine.process ?obs ?verify ~registry env ~now:it.now ~ingress:it.ingress
        it.pkt
    in
    let i = idxs.(k) in
    job.j_verdicts.(i) <- r;
    if job.j_want_actions then
      job.j_actions.(i) <-
        Engine.actions_of_verdict env ~ingress:it.ingress it.pkt verdict
  done;
  Engine.publish obs env;
  (match fl with
  | None -> ()
  | Some r -> F.record r ev_execute (F.now () - x0) job.j_count 0);
  note_gc t w fl

let worker t w =
  let stop () = Atomic.get t.stop in
  let ring = t.rings.(w) in
  let fl = t.fl_rings.(w + 1) in
  let rec loop () =
    match Spsc.pop_wait ~spin:t.spin ring ~stop with
    | None -> ()
    | Some job ->
        (match fl with
        | None -> ()
        | Some r ->
            F.record r ev_queue_wait (F.now () - job.j_submit_ns) job.j_count 0);
        (* The world was pinned into the job when it was dispatched:
           a publish between dispatch and this pop must not retarget
           an in-flight batch (snapshot.mli's RCU contract). *)
        run_shard t w job;
        (* After the decrement the dispatcher may reclaim the job as
           scratch — the job must not be touched again. Only the last
           job of the dispatch pays the lock/broadcast, and only to
           cover a dispatcher that gave up spinning and parked. *)
        let comp = t.comp in
        if Atomic.fetch_and_add comp.pending (-1) = 1 then begin
          Mutex.lock comp.c_lock;
          Condition.broadcast comp.c_done;
          Mutex.unlock comp.c_lock
        end;
        loop ()
  in
  loop ()

(* Spin only when every spinner can have a core to itself alongside
   the dispatcher; on an oversubscribed box a busy-poll steals the
   CPU of the very domain it is waiting on, which is how the PR-5
   pool lost to sequential even at one domain. *)
let spin_budget ~domains =
  if Domain.recommended_domain_count () > domains then 4096 else 0

let create ?(metrics = false) ?obs_sample_every ?flight ?flight_capacity
    ~domains snap =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  (match Snapshot.validate snap with
  | Ok () -> ()
  | Error e -> invalid_arg ("Pool.create: " ^ e));
  let fl_rings =
    match flight with
    | None -> Array.make (domains + 1) None
    | Some pid ->
        Array.init (domains + 1) (fun tid ->
            Some (F.create ?capacity:flight_capacity ~pid ~tid ()))
  in
  let acc_metrics = if metrics then Some (Metrics.create ()) else None in
  let pub =
    build_published ?sample_every:obs_sample_every ~metrics
      ~flights:(Array.sub fl_rings 1 domains) snap domains
  in
  let t =
    {
      ndomains = domains;
      current = Atomic.make pub;
      rings = Array.init domains (fun _ -> Spsc.create ~capacity:1);
      stop = Atomic.make false;
      doms = [||];
      with_metrics = metrics;
      obs_sample_every;
      spin = spin_budget ~domains;
      jobs =
        Array.init domains (fun _ ->
            {
              j_items = [||];
              j_idxs = [||];
              j_count = 0;
              j_verdicts = [||];
              j_actions = [||];
              j_want_actions = false;
              j_pub = pub;
              j_submit_ns = 0;
            });
      shard_of = [||];
      counts = Array.make domains 0;
      fill = Array.make domains 0;
      comp =
        { pending = Pad.atomic_int 0; c_lock = Mutex.create ();
          c_done = Condition.create () };
      acc_counters = Metrics.create ();
      acc_metrics;
      fl_rings;
      pub_counter =
        Option.map
          (fun m ->
            Metrics.counter m "pool.publish.count"
              ~help:"configuration epochs published over the pool's lifetime")
          acc_metrics;
      epoch_gauge =
        Option.map
          (fun m ->
            Metrics.gauge m "pool.epoch"
              ~help:"epoch of the currently published snapshot")
          acc_metrics;
      gc_gauges =
        Array.init domains (fun w ->
            Option.map
              (fun m ->
                ( Metrics.gauge m
                    (Printf.sprintf "pool.worker%d.gc.minor_collections" w)
                    ~help:"minor collections on the worker's domain",
                  Metrics.gauge m
                    (Printf.sprintf "pool.worker%d.gc.promoted_words" w)
                    ~help:
                      "words promoted to the major heap on the worker's domain"
                ))
              acc_metrics);
    }
  in
  (match t.epoch_gauge with
  | Some g -> Metrics.Gauge.set g snap.Snapshot.epoch
  | None -> ());
  (* A 1-worker pool runs every batch on the dispatching domain (see
     [dispatch]), so spawning its worker would only buy GC
     synchronization: each minor collection must handshake with the
     parked domain's backup thread, which on a busy single core costs
     far more than the batch work it interrupts. No domain, no tax. *)
  if domains > 1 then
    t.doms <- Array.init domains (fun w -> Domain.spawn (fun () -> worker t w));
  t

let domains t = t.ndomains
let epoch t = (Atomic.get t.current).snap.Snapshot.epoch

(* Fold one epoch's per-worker counters/metrics into the pool-lifetime
   accumulators. Called on the retiring world at publish time; exact
   when the pool is quiescent (between synchronous dispatches — the
   normal control-plane case). A batch still in flight on the retiring
   epoch keeps executing it (jobs pin their world) but increments it
   writes after this absorption die with the epoch. *)
let absorb_world ~counters ~metrics pub =
  Array.iter (fun env -> Metrics.absorb counters env.Env.counters) pub.envs;
  Option.iter
    (fun m -> Array.iter (Option.iter (Metrics.absorb m)) pub.metricses)
    metrics

let absorb_published t pub =
  absorb_world ~counters:t.acc_counters ~metrics:t.acc_metrics pub

(* The snapshot's own gate runs first: an unsound registry never
   reaches the epoch swap, and the previous snapshot keeps serving. *)
let publish t snap =
  Snapshot.publish snap ~via:(fun snap ->
      let next =
        build_published ?sample_every:t.obs_sample_every ~metrics:t.with_metrics
          ~flights:(Array.sub t.fl_rings 1 t.ndomains) snap t.ndomains
      in
      let retired = Atomic.exchange t.current next in
      absorb_published t retired;
      (match t.pub_counter with
      | Some c -> Metrics.Counter.incr c
      | None -> ());
      (match t.epoch_gauge with
      | Some g -> Metrics.Gauge.set g snap.Snapshot.epoch
      | None -> ());
      match t.fl_rings.(0) with
      | Some r ->
          F.record r ev_publish snap.Snapshot.epoch
            retired.snap.Snapshot.epoch 0
      | None -> ())

let nil_info =
  { Engine.ops_run = 0; ops_skipped = 0; state_bytes = 0; parallel_depth = 0 }

let nil_item = { now = 0.0; ingress = 0; pkt = Bitbuf.of_string "" }

(* Block until every job of the dispatch completed: spin within the
   machine-sized budget, then park on the completion condvar. *)
let wait t =
  let comp = t.comp in
  let fl0 = t.fl_rings.(0) in
  let a0 = match fl0 with None -> 0 | Some _ -> F.now () in
  let budget = ref t.spin in
  while Atomic.get comp.pending > 0 && !budget > 0 do
    Domain.cpu_relax ();
    decr budget
  done;
  let blocked = Atomic.get comp.pending > 0 in
  if blocked then begin
    Mutex.lock comp.c_lock;
    while Atomic.get comp.pending > 0 do
      Condition.wait comp.c_done comp.c_lock
    done;
    Mutex.unlock comp.c_lock
  end;
  match fl0 with
  | None -> ()
  | Some r -> F.record r ev_await (F.now () - a0) (if blocked then 1 else 0) 0

(* Shard the batch, pin the current epoch into its jobs, hand them to
   the workers and wait for all of them. *)
let dispatch t ~want_actions items =
  (* Stopped workers would never pop the jobs: the wait below would
     park forever. *)
  if Atomic.get t.stop then invalid_arg "Pool: dispatch after shutdown";
  let n = Array.length items in
  let fl0 = t.fl_rings.(0) in
  let d0 = match fl0 with None -> 0 | Some _ -> F.now () in
  let verdicts = Array.make n (Engine.Quiet, nil_info) in
  let actions = if want_actions then Array.make n [] else [||] in
  if n > 0 then begin
    (* Pin the world once for the whole dispatch: every job of this
       batch executes this epoch, whatever publishes land before the
       workers get to it. *)
    let pub = Atomic.get t.current in
    (* Shard by flow hash; stable within a worker, so per-flow
       arrival order is preserved. *)
    if Array.length t.shard_of < n then t.shard_of <- Array.make n 0;
    let shard_of = t.shard_of and counts = t.counts and fill = t.fill in
    Array.fill counts 0 t.ndomains 0;
    for i = 0 to n - 1 do
      let w = Flow.shard items.(i).pkt ~workers:t.ndomains in
      shard_of.(i) <- w;
      counts.(w) <- counts.(w) + 1
    done;
    let live = ref 0 in
    for w = 0 to t.ndomains - 1 do
      if counts.(w) > 0 then begin
        incr live;
        let j = t.jobs.(w) in
        if Array.length j.j_items < counts.(w) then begin
          let cap = Stdlib.max counts.(w) (2 * Array.length j.j_items) in
          j.j_items <- Array.make cap nil_item;
          j.j_idxs <- Array.make cap 0
        end;
        j.j_count <- counts.(w);
        j.j_verdicts <- verdicts;
        j.j_actions <- actions;
        j.j_want_actions <- want_actions;
        j.j_pub <- pub;
        fill.(w) <- 0
      end
    done;
    for i = 0 to n - 1 do
      let w = shard_of.(i) in
      let j = t.jobs.(w) in
      j.j_items.(fill.(w)) <- items.(i);
      j.j_idxs.(fill.(w)) <- i;
      fill.(w) <- fill.(w) + 1
    done;
    if t.ndomains = 1 then
      (* Run-to-completion: a one-worker pool {e is} the dispatcher.
         There is no parallelism to win by crossing a domain boundary,
         only the ring transfer plus (on a box where the two domains
         share a core) two scheduler round trips per batch — which is
         exactly how the PR-5 pool lost to sequential at one domain.
         The job is worker 0's, so results, counters, caching and the
         execute span are indistinguishable from the ring path; the
         worker domain is never spawned. *)
      run_shard t 0 t.jobs.(0)
    else begin
      (* One submit stamp for the whole dispatch: each worker's
         queue-wait span measures pop time minus this. *)
      (match fl0 with
      | None -> ()
      | Some _ ->
          let s = F.now () in
          for w = 0 to t.ndomains - 1 do
            if counts.(w) > 0 then t.jobs.(w).j_submit_ns <- s
          done);
      (* The countdown must be armed before the first push: a fast
         worker may finish its job before the later pushes happen. *)
      Atomic.set t.comp.pending !live;
      for w = 0 to t.ndomains - 1 do
        (* The previous dispatch completed, so its jobs were popped:
           a full ring means the one-dispatch-outstanding rule broke. *)
        if counts.(w) > 0 && not (Spsc.push t.rings.(w) t.jobs.(w)) then
          failwith "Pool: worker ring full"
      done;
      match fl0 with
      | None -> ()
      | Some r -> F.record r ev_dispatch (F.now () - d0) n !live
    end
  end;
  wait t;
  (* Reset the scratch: between dispatches it must pin no packets,
     results, or retired world. *)
  let cur = Atomic.get t.current in
  Array.iter
    (fun j ->
      if j.j_count > 0 then Array.fill j.j_items 0 j.j_count nil_item;
      j.j_count <- 0;
      j.j_verdicts <- [||];
      j.j_actions <- [||];
      j.j_pub <- cur)
    t.jobs;
  (verdicts, actions)

let process_batch t items = fst (dispatch t ~want_actions:false items)
let handle_batch t items = snd (dispatch t ~want_actions:true items)

(* The retired epochs' totals plus the current epoch's, merged into
   fresh registries through the same fold a publish uses. *)
let totals t ~metrics =
  let copy m =
    let c = Metrics.create () in
    Metrics.absorb c m;
    c
  in
  let counters = copy t.acc_counters in
  let metrics = if metrics then Option.map copy t.acc_metrics else None in
  absorb_world ~counters ~metrics (Atomic.get t.current);
  (counters, metrics)

let counters t = fst (totals t ~metrics:false)
let metrics t = snd (totals t ~metrics:true)

let flight_rings t =
  Array.to_list t.fl_rings |> List.filter_map (fun r -> r)

(* --- hand-off attribution from the flight rings -------------------- *)

type lane_stat = { count : int; mean_ns : float; p99_ns : int; max_ns : int }

type lane = { worker : int; queue_wait : lane_stat; execute : lane_stat }

type summary = {
  dispatch : lane_stat;
  await : lane_stat;
  await_blocked : int;
  lanes : lane list;
}

let nil_stat = { count = 0; mean_ns = 0.0; p99_ns = 0; max_ns = 0 }

let stat_of = function
  | [] -> nil_stat
  | l ->
      let a = Array.of_list l in
      Array.sort Stdlib.compare a;
      let n = Array.length a in
      let sum = Array.fold_left ( + ) 0 a in
      let rank = Stdlib.max 1 (int_of_float (Float.ceil (0.99 *. float_of_int n))) in
      {
        count = n;
        mean_ns = float_of_int sum /. float_of_int n;
        p99_ns = a.(rank - 1);
        max_ns = a.(n - 1);
      }

let timeline_summary t =
  match t.fl_rings.(0) with
  | None -> None
  | Some r0 ->
      let durs evs id =
        List.filter_map
          (fun e -> if e.F.ev_id = id then Some e.F.ev_a0 else None)
          evs
      in
      let evs0 = F.events r0 in
      let lanes =
        List.init t.ndomains (fun w ->
            let evs =
              match t.fl_rings.(w + 1) with
              | None -> []
              | Some r -> F.events r
            in
            {
              worker = w;
              queue_wait = stat_of (durs evs ev_queue_wait);
              execute = stat_of (durs evs ev_execute);
            })
      in
      Some
        {
          dispatch = stat_of (durs evs0 ev_dispatch);
          await = stat_of (durs evs0 ev_await);
          await_blocked =
            List.length
              (List.filter
                 (fun e -> e.F.ev_id = ev_await && e.F.ev_a1 = 1)
                 evs0);
          lanes;
        }

let shutdown t =
  if not (Atomic.get t.stop) then begin
    Atomic.set t.stop true;
    Array.iter Spsc.wake t.rings;
    Array.iter Domain.join t.doms;
    t.doms <- [||]
  end

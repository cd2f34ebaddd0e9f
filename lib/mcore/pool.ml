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
   progcache / GC). Every ring has exactly one writing domain. The
   dispatcher {e is} worker 0, so it writes lanes 0 and 1 at every
   domain count, and lane 1 never carries a queue-wait. *)
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

(* One dispatch, shared read-only by every worker: the caller's
   batch in place, each item's shard, the caller-order result slots
   and the world pinned at dispatch time (the RCU contract). Worker
   [w] runs the items whose [shard_of] byte is [w] in index order,
   which keeps per-flow order without copying its shard out. *)
type job = {
  items : item array;
  shard_of : Bytes.t; (* each item's worker; OCaml runs <= 128 domains *)
  verdicts : (Engine.verdict * Engine.info) array;
  actions : Dip_netsim.Sim.action list array; (* [||] if unwanted *)
  pub : published;
  submit_ns : int; (* flight: dispatch stamp for queue-wait *)
}

type t = {
  ndomains : int;
  current : published Atomic.t;
  stop : bool Atomic.t;
  mutable doms : unit Domain.t array; (* workers 1 .. ndomains - 1 *)
  with_metrics : bool;
  obs_sample_every : int option;
  (* The barrier. The dispatcher stores [job], then bumps [gen]; a
     worker that sees [gen] move reads [job], runs its shard and
     decrements [pending]. At most one dispatch is outstanding, so
     every spawned worker takes part in every generation. Waits spin
     then park on [lock] ([go] for workers, [done_] for the
     dispatcher). *)
  mutable job : job; (* the last dispatch, until the next replaces it *)
  gen : int Atomic.t;
  pending : int Atomic.t;
  lock : Mutex.t;
  go : Condition.t;
  done_ : Condition.t;
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

(* The shard executor: Algorithm 1 over worker [w]'s items of the
   job, on [w]'s environment of the world pinned into the job, results
   straight into the caller-order slots. A spawned worker's lane gets
   a queue-wait span per release (a1 = batch size); a non-empty shard
   then gets the per-batch publish, the execute span (a1 = items run)
   and the GC reading. *)
let run_shard t w job =
  let fl = t.fl_rings.(w + 1) in
  let x0 = match fl with None -> 0 | Some _ -> F.now () in
  (match fl with
  | Some r when w > 0 ->
      F.record r ev_queue_wait (x0 - job.submit_ns) (Array.length job.items) 0
  | _ -> ());
  let pub = job.pub in
  let env = pub.envs.(w) and obs = pub.obses.(w) in
  let verify = pub.snap.Snapshot.verify
  and registry = pub.snap.Snapshot.registry in
  let want_actions = Array.length job.actions > 0 in
  let count = ref 0 in
  for i = 0 to Array.length job.items - 1 do
    if Char.code (Bytes.get job.shard_of i) = w then begin
      let it = job.items.(i) in
      let ((verdict, _) as r) =
        Engine.process ?obs ?verify ~registry env ~now:it.now
          ~ingress:it.ingress it.pkt
      in
      job.verdicts.(i) <- r;
      if want_actions then
        job.actions.(i) <-
          Engine.actions_of_verdict env ~ingress:it.ingress it.pkt verdict;
      incr count
    end
  done;
  if !count > 0 then begin
    Env.publish_cache_stats env;
    (match fl with
    | None -> ()
    | Some r -> F.record r ev_execute (F.now () - x0) !count 0);
    note_gc t w fl
  end

(* Domains running on behalf of pools: the dispatching domain plus
   every live pool's spawned workers. *)
let running = Atomic.make 1
let cores = Domain.recommended_domain_count ()

(* Spin only when every running domain (a pool's dispatcher is its
   worker 0) can have a core to itself; on an oversubscribed box a
   busy-poll steals the CPU of the very domain it is waiting on, which
   is how an earlier pool lost to sequential even at one domain. Read
   at every wait, so a second pool's workers count once spawned. *)
let spin_budget () = if cores >= Atomic.get running then 4096 else 0

(* Spin within the machine-sized budget until [ready], then park on
   [c]; true when it had to park. Wakers broadcast under [t.lock]
   after making [ready] true, so a parked waiter cannot miss them. *)
let await t c ready =
  let budget = ref (spin_budget ()) in
  while (not (ready ())) && !budget > 0 do
    Domain.cpu_relax ();
    decr budget
  done;
  let blocked = not (ready ()) in
  if blocked then begin
    Mutex.lock t.lock;
    while not (ready ()) do
      Condition.wait c t.lock
    done;
    Mutex.unlock t.lock
  end;
  blocked

let wake t c =
  Mutex.lock t.lock;
  Condition.broadcast c;
  Mutex.unlock t.lock

(* A spawned worker: wait for the next generation, run its shard of
   the job published with it, count down. The last one down wakes a
   dispatcher that gave up spinning. *)
let worker t w =
  let rec loop seen =
    ignore (await t t.go (fun () -> Atomic.get t.gen <> seen));
    if not (Atomic.get t.stop) then begin
      run_shard t w t.job;
      if Atomic.fetch_and_add t.pending (-1) = 1 then wake t t.done_;
      loop (seen + 1)
    end
  in
  loop 0

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
      stop = Atomic.make false;
      doms = [||];
      with_metrics = metrics;
      obs_sample_every;
      job =
        {
          items = [||];
          shard_of = Bytes.empty;
          verdicts = [||];
          actions = [||];
          pub;
          submit_ns = 0;
        };
      gen = Atomic.make 0;
      pending = Atomic.make 0;
      lock = Mutex.create ();
      go = Condition.create ();
      done_ = Condition.create ();
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
  (* Worker 0 is the dispatching domain itself: a 1-domain pool spawns
     nothing, so it never crosses a domain nor taxes each minor
     collection with a handshake against a parked domain. *)
  ignore (Atomic.fetch_and_add running (domains - 1));
  t.doms <-
    Array.init (domains - 1) (fun k -> Domain.spawn (fun () -> worker t (k + 1)));
  t

let domains t = t.ndomains
let epoch t = (Atomic.get t.current).snap.Snapshot.epoch

(* Fold one epoch's per-worker counters/metrics into the pool-lifetime
   accumulators. Called on the retiring world at publish time; exact
   when the pool is quiescent (between synchronous dispatches — the
   normal control-plane case). A batch still in flight on the retiring
   epoch keeps executing it (a dispatch pins its world) but increments it
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

(* Shard the batch, pin the current epoch into the job, release the
   workers, run worker 0's shard here and wait for the rest. *)
let dispatch t ~want_actions items =
  (* Stopped workers would never count down: the wait below would
     park forever. *)
  if Atomic.get t.stop then invalid_arg "Pool: dispatch after shutdown";
  let n = Array.length items in
  let fl0 = t.fl_rings.(0) in
  let d0 = match fl0 with None -> 0 | Some _ -> F.now () in
  (* Shard by flow hash: a flow's packets all land on one worker,
     which runs them in index order. With one worker every item is
     worker 0's already, so the hashing pass is skipped. *)
  let shard_of = Bytes.make n '\000' in
  if t.ndomains > 1 then
    for i = 0 to n - 1 do
      Bytes.set shard_of i
        (Char.chr (Flow.shard items.(i).pkt ~workers:t.ndomains))
    done;
  let job =
    {
      items;
      shard_of;
      verdicts = Array.make n (Engine.Quiet, nil_info);
      actions = (if want_actions then Array.make n [] else [||]);
      (* Pinned once for the whole dispatch: every shard runs this
         epoch, whatever publishes land before a worker gets to it. *)
      pub = Atomic.get t.current;
      submit_ns = (match fl0 with None -> 0 | Some _ -> F.now ());
    }
  in
  (* The countdown and the job must be in place before the bump: a
     fast worker may finish before the dispatcher runs its own shard. *)
  t.job <- job;
  Atomic.set t.pending (t.ndomains - 1);
  Atomic.incr t.gen;
  wake t t.go;
  (match fl0 with
  | None -> ()
  | Some r -> F.record r ev_dispatch (F.now () - d0) n 0);
  (* Worker 0's shard runs here. Should it raise, the spawned workers
     still finish this generation before the exception leaves, so the
     next dispatch starts on a quiescent barrier. *)
  let finish () = await t t.done_ (fun () -> Atomic.get t.pending = 0) in
  (try run_shard t 0 job
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     ignore (finish ());
     Printexc.raise_with_backtrace e bt);
  let a0 = match fl0 with None -> 0 | Some _ -> F.now () in
  let blocked = finish () in
  (match fl0 with
  | None -> ()
  | Some r -> F.record r ev_await (F.now () - a0) (if blocked then 1 else 0) 0);
  (job.verdicts, job.actions)

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
    Atomic.incr t.gen;
    wake t t.go;
    Array.iter Domain.join t.doms;
    ignore (Atomic.fetch_and_add running (-Array.length t.doms));
    t.doms <- [||]
  end

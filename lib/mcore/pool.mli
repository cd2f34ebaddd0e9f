(** A pool of worker domains executing the DIP engine over sharded
    packet batches — one logical router as [N] parallel line cards.

    Architecture (DESIGN.md §12):

    - [N] workers: the dispatching domain is worker 0 and [N - 1]
      spawned domains are workers [1 .. N - 1]. Each owns a private
      {!Dip_core.Env.t} (built from the snapshot's [mk_env]) plus,
      optionally, a private {!Dip_obs.Metrics.t}/{!Dip_core.Obs.t}
      pair. Workers share {e no} mutable state; the only cross-domain
      traffic is one barrier per dispatch and the published-snapshot
      pointer.
    - Packets are sharded to workers by {!Flow.hash} over the match
      field, so all packets of a flow execute in arrival order on
      one worker (per-flow ordering, coherent per-flow state) while
      distinct flows run concurrently.
    - Configuration is read through an [Atomic] snapshot pointer
      ({!Snapshot}); {!publish} swaps it wholesale. The published
      world is pinned into the dispatch record {e at dispatch time}:
      in-flight batches always finish on the epoch they were
      dispatched under, however the swap interleaves with worker
      scheduling.
    - A dispatch records each item's shard (a byte per item),
      publishes one shared read-only record (the caller's items in place, the
      shard of each, the result arrays, the pinned world) and bumps a
      generation counter. The dispatcher then runs worker 0's shard
      itself; each spawned worker scans the batch in index order and
      runs its own items, writing results into caller-order slots.
      Completion is one atomic countdown. Both waits spin within a
      machine-sized budget, then block.

    {!process_batch} and {!handle_batch} are the only entry points,
    and both are synchronous: shard, pin the epoch, release the
    workers, run shard 0, wait, return — so at most one dispatch is
    ever outstanding. A 1-domain pool spawns nothing: it is the same
    path with zero spawned workers, and never crosses a domain.
    Results are returned in the caller's input order. All
    dispatching must come from one domain at a time — the pool is
    [N] workers behind {e one} dispatcher, not a thread-safe job
    queue. Between dispatches the pool is quiescent, which is when
    {!counters} / {!metrics} snapshots are exact. *)

type t

type item = {
  now : float;
  ingress : Dip_core.Env.port;
  pkt : Dip_bitbuf.Bitbuf.t;
}

val create :
  ?metrics:bool ->
  ?obs_sample_every:int ->
  ?flight:int ->
  ?flight_capacity:int ->
  domains:int ->
  Snapshot.t ->
  t
(** [create ~domains snap] builds a pool of [domains] workers (≥ 1):
    the domain that dispatches is worker 0, and [domains - 1] worker
    domains are spawned.
    [metrics] (default false)
    gives each worker a private metrics registry and engine observer
    (merged on {!metrics}); [obs_sample_every] tunes its span
    sampling. Call {!shutdown} when done — worker domains are not
    daemons.

    [flight] arms a {!Dip_obs.Flight} recorder with the given trace
    pid: the pool owns [domains + 1] rings ([flight_capacity] events
    each) — tid 0 is the dispatcher lane (["pool.dispatch"] /
    ["pool.await"] spans, ["pool.publish"] instants), tid [w + 1] is
    worker [w]'s lane (["pool.execute"] spans, the engine's and
    program cache's events, and per-batch ["gc.minor_collections"] /
    ["gc.promoted_words"] counters; spawned workers also get a
    ["pool.queue_wait"] span per dispatch). The dispatcher writes
    tids 0 and 1 at every domain count. Arming the recorder gives
    every worker an observer even without [metrics]. Drain with
    {!flight_rings} / {!timeline_summary} when the pool is
    quiescent.

    With [domains:1] nothing is spawned and every batch runs on the
    dispatching domain through the same dispatch path: there is no
    parallelism to buy with a domain crossing, only hand-off
    overhead. This is the configuration whose overhead floor the
    [mcore] bench asserts on small machines. *)

val domains : t -> int

val epoch : t -> int
(** Epoch of the currently published snapshot. *)

val publish : t -> Snapshot.t -> (unit, string) result
(** Atomically replace the configuration snapshot: fresh per-worker
    environments, registry and verifier. Lock-free for workers; a
    batch dispatched before the swap finishes on the old epoch (its
    world is pinned in the dispatch), one dispatched after runs on the
    new.

    Counters and metrics accumulated under the retiring epoch are
    {e absorbed} into a pool-lifetime accumulator before the old
    world is dropped, so {!counters}/{!metrics} keep reporting
    totals across configuration changes. The absorption is exact
    when the pool is quiescent (no dispatch in flight) — increments
    a still-running pinned batch makes after the swap die with its
    epoch.

    The snapshot's publish-time gate ({!Snapshot.check}) runs first:
    on [Error] nothing is swapped, the previous epoch keeps serving,
    and the reason is returned. {!create} applies the same gate to
    the initial snapshot (raising [Invalid_argument], since there is
    no previous epoch to keep). *)

val process_batch : t -> item array -> (Dip_core.Engine.verdict * Dip_core.Engine.info) array
(** Execute the router-side engine over the batch, sharded across
    the workers; blocks until done. Result [i] corresponds to input
    [i]. Packets are mutated in place exactly as
    {!Dip_core.Engine.process} would. Raises [Invalid_argument]
    after {!shutdown}. *)

val handle_batch : t -> item array -> Dip_netsim.Sim.action list array
(** Like {!process_batch} but additionally translates each verdict
    into simulator actions ({!Dip_core.Engine.actions_of_verdict})
    on the worker, returning the per-packet action lists — the shape
    {!Runner} hands back to {!Dip_netsim.Sim.run_batched}. *)

val counters : t -> Dip_netsim.Stats.Counters.t
(** Sum of the per-worker environment counters (the [dip.*] verdict
    tallies {!handle_batch} counts, progcache hit/miss/evict, …)
    under the current
    snapshot {e plus} the absorbed totals of every retired epoch,
    merged into a fresh registry by {!Dip_obs.Metrics.absorb} — the
    same fold as {!metrics}. Handles no worker ever wrote stay out of
    {!Dip_netsim.Stats.Counters.to_list}. Exact when the pool is
    quiescent. *)

val metrics : t -> Dip_obs.Metrics.t option
(** Per-worker metrics registries (current epoch plus retired-epoch
    accumulator) merged into a fresh registry
    ({!Dip_obs.Metrics.absorb}) — [None] unless [create
    ~metrics:true]. Exact when the pool is quiescent. *)

val flight_rings : t -> Dip_obs.Flight.ring list
(** The pool's flight-recorder rings — dispatcher lane first, then
    one per worker ([[]] unless [create ~flight]). Read them only
    when the pool is quiescent; merge with the caller's own rings via
    {!Dip_obs.Flight.merge} for a cross-layer timeline. *)

type lane_stat = {
  count : int;  (** samples recorded (0 → other fields are zero) *)
  mean_ns : float;
  p99_ns : int;
  max_ns : int;
}

type lane = {
  worker : int;
  queue_wait : lane_stat;
      (** dispatch → worker starts, per dispatch; empty for worker 0,
          which is the dispatcher *)
  execute : lane_stat;
      (** shard start → shard finished, per non-empty shard *)
}

type summary = {
  dispatch : lane_stat;  (** shard + release span on the dispatcher *)
  await : lane_stat;
      (** wait for the spawned workers after running shard 0 *)
  await_blocked : int;  (** waits that parked on the condvar *)
  lanes : lane list;
}

val timeline_summary : t -> summary option
(** Digest the flight rings into per-worker queue-wait / execute and
    dispatcher dispatch / await latency stats — [None] unless the
    recorder is armed. Statistics cover only the events still in the
    rings (overwrite-oldest), so on long runs they describe the
    recent past. Quiescent-pool only, like {!flight_rings}. *)

val shutdown : t -> unit
(** Stop and join the spawned worker domains. Dispatching
    afterwards raises [Invalid_argument], whatever the domain count;
    {!counters}, {!metrics} and the flight readers keep working.
    Idempotent. *)

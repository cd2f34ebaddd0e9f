(** The engine's span recorder: per-opkey execution accounting for
    Algorithm 1, backed by a {!Dip_obs.Metrics} registry.

    [Obs] carries only what the node's {!Env} registry lacks. Verdicts
    are counted once, by {!Engine.actions_of_verdict}, through the
    Env's ["dip.*"] handles, and program-cache totals are published
    once, by {!Env.publish_cache_stats}, as ["progcache.*"].

    An [Obs.t] holds pre-resolved metric handles indexed densely by
    operation key, so the engine's per-packet cost with observability
    enabled is a handful of integer stores — and {e zero} when the
    engine runs without [?obs] (the handles are never touched, no
    closure is allocated).

    Timing uses {e sampling}: every [sample_every]-th packet gets
    monotonic-clock spans around the whole run and around each
    operation module; the rest only bump counters. At the default
    rate the two clock reads per FN amortize to well under the 15%
    overhead budget while the nanosecond totals and the latency
    histogram stay statistically faithful (multiply by
    [sample_every] to estimate wall totals).

    Registered metric names:
    - ["engine.op.<F_key>.run" / ".skip" / ".error"] — counters per
      operation key: executed, tag- or deployment-skipped, aborted.
    - ["engine.op.<F_key>.ns"] — cumulative {e sampled} execution
      nanos.
    - ["engine.process_ns"] — sampled whole-run latency histogram. *)

type t

val create :
  ?sample_every:int -> ?flight:Dip_obs.Flight.ring -> Dip_obs.Metrics.t -> t
(** [create metrics] registers the engine instruments.
    [sample_every] (default {!default_sample_every}, must be [>= 1])
    sets the span-timing rate; [1] times every packet. [flight] arms
    a flight-recorder ring, owned by the domain running this
    observer's engine: sampled runs additionally record
    ["engine.process"] spans (a0 = ns, a1 = verdict class) and
    ["engine.op"] spans (a0 = ns, a1 = opkey) into it. *)

val default_sample_every : int
(** 16. *)

(** {1 Engine-facing recording}

    These are called by {!Engine}. *)

val begin_packet : t -> bool
(** Tick the sampler; [true] when this run should be span-timed. *)

val op_run : t -> Opkey.t -> unit
val op_skip : t -> Opkey.t -> unit
val op_error : t -> Opkey.t -> unit
val op_ns : t -> Opkey.t -> int -> unit
(** Add sampled execution nanoseconds to an opkey's total. *)

val process_ns : t -> int -> int -> unit
(** [process_ns t ns cls] observes one sampled whole-run latency.
    [cls] is the run's verdict class, the flight span's a1: 0
    forwarded, 1 delivered, 2 responded, 3 quiet, 4 dropped, 5
    unsupported. *)

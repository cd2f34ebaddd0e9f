(** The engine's span recorder: per-opkey execution accounting for
    Algorithm 1, backed by a {!Dip_obs.Metrics} registry.

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

    Registered metric names (under [prefix], default ["engine"]):
    - ["<p>.op.<F_key>.run" / ".skip" / ".error"] — counters per
      operation key: executed, tag- or deployment-skipped, aborted.
    - ["<p>.op.<F_key>.ns"] — cumulative {e sampled} execution nanos.
    - ["<p>.verdict.<name>"] — forwarded / delivered / responded /
      quiet / dropped / unsupported tallies.
    - ["<p>.process_ns"] — sampled whole-run latency histogram.
    - ["<p>.packets"] — runs observed.
    - ["<p>.progcache.hit" / ".miss" / ".evict"] — gauges mirrored
      from the node's {!Progcache} by {!publish_cache}. *)

type t

val create :
  ?prefix:string ->
  ?sample_every:int ->
  ?flight:Dip_obs.Flight.ring ->
  Dip_obs.Metrics.t ->
  t
(** [create metrics] registers the engine instruments.
    [sample_every] (default {!default_sample_every}, must be [>= 1])
    sets the span-timing rate; [1] times every packet. [flight] arms
    a flight-recorder ring: sampled runs additionally record
    ["engine.process"] spans (a0 = ns, a1 = verdict class) and
    ["engine.op"] spans (a0 = ns, a1 = opkey) into it. *)

val default_sample_every : int
(** 16. *)

val metrics : t -> Dip_obs.Metrics.t

val set_flight : t -> Dip_obs.Flight.ring option -> unit
(** Arm (or disarm) the flight ring after creation. The ring must be
    owned by the domain running this observer's engine. *)

val flight : t -> Dip_obs.Flight.ring option

val publish_cache : t -> Progcache.t -> unit
(** Mirror the program cache's hit/miss/evict totals into the
    ["<p>.progcache.*"] gauges. The engine's simulator handlers call
    this after every packet. *)

(** {1 Engine-facing recording}

    These are called by {!Engine}. *)

val begin_packet : t -> bool
(** Count one run; [true] when this run should be span-timed. *)

val op_run : t -> Opkey.t -> unit
val op_skip : t -> Opkey.t -> unit
val op_error : t -> Opkey.t -> unit
val op_ns : t -> Opkey.t -> int -> unit
(** Add sampled execution nanoseconds to an opkey's total. *)

val verdict : t -> [ `Forwarded | `Delivered | `Responded | `Quiet
                   | `Dropped | `Unsupported ] -> unit

val process_ns : t -> int -> unit
(** Observe one sampled whole-run latency. *)

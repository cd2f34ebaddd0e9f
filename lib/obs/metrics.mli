(** The unified metrics registry: counters, gauges and fixed-bucket
    log-scale histograms.

    Everything the engine, simulator and program cache measure is
    registered here under a dotted name and exported uniformly
    ({!Export}). The design constraint is the per-packet hot path:
    {e registration} (name lookup) happens once, at instrumentation
    setup, and returns a handle; {e recording} through a handle is a
    field store on a mutable record — no hashing, no allocation, no
    boxing. A packet-processing loop holding pre-resolved handles
    pays a few nanoseconds per event.

    Histograms use fixed power-of-two buckets (log scale), not
    reservoirs: observing a value is "find its bit length, bump a
    slot of an int array", with no allocation. Quantiles read from a
    histogram are therefore {e estimates} with one-bucket (2x)
    resolution — the right trade-off for latency distributions and
    queue depths on the hot path. *)

type t
(** A registry: a mutable set of named instruments. *)

type counter
(** Monotonically increasing integer. *)

type gauge
(** Integer that can go up and down (queue depth, cache size). *)

type histogram
(** Log-scale distribution of non-negative integers (latency in ns,
    sizes in bytes, queue depths). *)

val create : unit -> t

(** {1 Registration}

    Registering the same name twice returns the {e same} handle, so
    independent instrumentation sites may share an instrument.
    Registering a name that already exists with a different
    instrument kind raises [Invalid_argument]. *)

val counter : ?help:string -> t -> string -> counter
val gauge : ?help:string -> t -> string -> gauge
val histogram : ?help:string -> t -> string -> histogram

(** {1 Recording through handles} *)

module Counter : sig
  val incr : ?by:int -> counter -> unit

  val set : counter -> int -> unit
  (** Overwrite the value — for mirroring a total kept elsewhere
      (e.g. a program cache's hit count). *)

  val get : counter -> int
end

type family
(** Counters named [prefix ^ label] for an open set of labels (drop
    reasons): each label is registered on its first use, then found
    again without hashing or building its name. *)

val family : ?help:string -> t -> string -> family
(** [family t prefix] — registers nothing yet. *)

val member : family -> string -> counter
(** The counter for one label. *)

module Gauge : sig
  val set : gauge -> int -> unit
  val get : gauge -> int
end

module Histogram : sig
  val buckets : int
  (** Number of buckets. Bucket [0] holds [0]; bucket [i]
      ([1 <= i < buckets-1]) holds values in [[2{^i-1}, 2{^i})]; the
      last bucket holds everything larger. *)

  val bound : int -> float
  (** [bound i] is the exclusive upper bound of bucket [i]
      ([infinity] for the last). *)

  val observe : histogram -> int -> unit
  (** Record one value; allocates nothing. Negative values count as
      0. *)

  val count : histogram -> int
  val sum : histogram -> int
  val max_value : histogram -> int
  (** Largest value observed; [0] when empty. *)

  val bucket_counts : histogram -> int array
  (** A copy of the per-bucket counts (length {!buckets}). *)

  val quantile : histogram -> float -> float
  (** [quantile h q] with [q] in [[0,1]]: an {e estimate} of the
      q-quantile — the upper bound of the bucket holding the rank,
      clamped to {!max_value}. Accurate to one power-of-two bucket.
      [0.] when empty; raises [Invalid_argument] if [q] is outside
      [[0,1]]. *)
end

(** {1 Snapshot for exporters} *)

type hsnap = {
  counts : int array;  (** per-bucket counts, length {!Histogram.buckets} *)
  count : int;
  sum : float;
  max_value : float;
}

type value = Counter_v of int | Gauge_v of int | Histogram_v of hsnap

val snapshot_quantile : hsnap -> float -> float
(** {!Histogram.quantile} over a snapshot (no range check on [q]). *)

val snapshot : t -> (string * string * value) list
(** [(name, help, value)] for every registered instrument, sorted by
    name. *)

val absorb : t -> t -> unit
(** [absorb t src] merges every instrument of [src] into [t],
    registering instruments as needed: counters and histogram buckets
    (count, sum, max) add; gauges add too, so a merged gauge reads as
    the sum across the absorbed registries — the aggregation a
    multi-domain data plane wants when per-worker registries are
    folded together on drain ({!Dip_mcore}). *)

(** {1 The counter view}

    What {!Dip_netsim.Stats.Counters} reads. A counter is {e written}
    once {!Counter.incr} or {!Counter.set} has touched it (or it was
    absorbed from a written one); a handle registered at setup and
    never touched stays out of {!written_counters}. *)

val counter_value : t -> string -> int
(** The counter registered as [name]; [0] when there is none. *)

val written_counters : t -> (string * int) list
(** Every written counter with its value, sorted by name. *)

(** Measurement collection: the named-counter view and latency/size
    histograms.

    Every experiment harness reports through this module so output
    formats stay uniform across the paper's figures. Counting itself
    happens through pre-registered {!Dip_obs.Metrics} handles;
    {!Counters} is the read side of such a registry. *)

(** A read-only view of the counters in a {!Dip_obs.Metrics}
    registry — {!Sim.counters}, [Dip_core.Env.t]'s [counters]. Writers
    register a handle once, at setup, and count through it. *)
module Counters : sig
  type t = Dip_obs.Metrics.t

  val get : t -> string -> int
  (** [0] for a name never registered. *)

  val to_list : t -> (string * int) list
  (** Every counter written so far, sorted by name; a handle
      registered but never written is not listed. *)
end

(** A bounded reservoir of float samples with summary statistics.

    Memory is capped: [count], [mean], [min], [max] and [stddev] are
    exact over {e every} sample ever added (maintained streamingly),
    while order statistics ([percentile], and the p50/p99 of
    [summary]) are computed over a fixed-size uniform random sample
    of the stream (Algorithm R reservoir, deterministic PRNG). Until
    the series exceeds its capacity the reservoir holds everything
    and percentiles are exact; beyond that they are unbiased
    estimates whose resolution degrades gracefully with the
    stream/capacity ratio. *)
module Series : sig
  type t

  val default_capacity : int
  (** 4096 samples — about 32 KiB per series. *)

  val create : ?capacity:int -> unit -> t
  (** [capacity] bounds the reservoir (default
      {!default_capacity}; must be [>= 1]). *)

  val capacity : t -> int
  val add : t -> float -> unit

  val count : t -> int
  (** Total samples added (not the reservoir occupancy). *)

  val mean : t -> float
  (** Exact over all samples; [0.] on an empty series. *)

  val min : t -> float
  (** Exact over all samples; [0.] on an empty series (consistent
      with {!mean} — check {!count} to distinguish "no samples" from
      "samples around zero"). *)

  val max : t -> float
  (** Exact over all samples; [0.] on an empty series. *)

  val stddev : t -> float
  (** Exact sample standard deviation (Welford); [0.] when fewer
      than two samples. *)

  val percentile : t -> float -> float
  (** [percentile s p] with [p] in [\[0,100\]] by linear interpolation
      between order statistics of the sorted {e reservoir}
      (Hyndman–Fan type 7, the R/NumPy default): exact while
      [count s <= capacity s], an unbiased estimate afterwards.
      Interpolation keeps tiny reservoirs honest — with k samples a
      nearest-rank rule would return the max for every
      [p >= 100·(k−1)/k]. Raises [Invalid_argument] on an empty
      series or [p] out of range. *)

  val summary : t -> string
  (** "n=… mean=… p50=… p99=… max=…" one-liner (p50/p99 are
      reservoir estimates, the rest exact). *)
end

(** Deterministic pseudo-random number generation for workloads.

    All workload generators in this repository derive their randomness
    from this module so that every experiment is reproducible from a
    seed. The core generator is SplitMix64 (Steele, Lea, Flood 2014),
    which is fast, has a full 2^64 period, and splits cleanly into
    independent streams. *)

type t
(** A mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator. Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing
    [t]. Used to give each simulated node its own stream. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing it. *)

val next64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be
    positive. Rejection sampling keeps the draw unbiased. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val bool : t -> bool
(** A fair coin. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bytes : t -> int -> bytes
(** [bytes t n] is [n] random bytes. *)

val shuffle : t -> 'a array -> unit
(** Fisher–Yates in-place shuffle. *)

val exponential : t -> float -> float
(** [exponential t rate] samples an exponential inter-arrival time
    with the given rate (mean [1. /. rate]). *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] samples a rank in [\[1, n\]] from a Zipf
    distribution with exponent [s], via inverse-CDF over precomputed
    weights. Content-popularity workloads (NDN) use this. *)

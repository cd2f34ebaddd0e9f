(** Token-bucket rate limiter.

    The enforcement half of NetFence-style congestion policing
    (paper §1: NetFence "emulates congestion control (additive
    increase and multiplicative decrease) inside the network to
    mitigate DDoS attacks"). A bucket fills at [rate] bytes/second up
    to [burst] bytes; a packet passes if its size can be paid from
    the bucket. *)

type t

val create : rate:float -> burst:float -> now:float -> t
(** [rate] in bytes/second and [burst] in bytes must be positive. *)

val set_rate : t -> float -> unit
(** Re-provision the fill rate (the policer applies AIMD decisions
    through this). *)

val consume : t -> now:float -> bytes:int -> bool
(** [consume t ~now ~bytes] refills for the elapsed time, then takes
    [bytes] tokens if available; [false] means the packet exceeds the
    allowance. [now] must not go backwards. *)

val available : t -> now:float -> float
(** Tokens available at [now], after refill. *)

(** A bounded store for custodial packets.

    An LRU store keyed by bundle id ({!Slots}), with byte accounting
    and explicit admission: a
    custodian must know whether the store {e accepted} a bundle
    (custody taken, ACK upstream) or {e rejected} it (upstream keeps
    custody) — the silent eviction of a plain LRU cache would lose
    the only stored copy without anyone noticing. Both an entry-count
    bound and a byte bound hold at all times; admission pre-evicts
    least-recently-used bundles until the new one fits, and a bundle
    larger than [max_bytes] is rejected outright. The store keeps no
    counters of its own: every transition goes to {!set_observer}. *)

type 'v t

(** Store transitions, for wiring counters, gauges and Flight
    instants. *)
type event = Take | Release | Evict | Reject

val create : capacity:int -> max_bytes:int -> size:('v -> int) -> unit -> 'v t
(** [size] measures a stored value in bytes (charged on admission,
    refunded on release/evict). Both bounds must be [>= 1]. *)

val size : 'v t -> int
(** Live entries — never exceeds [capacity]. *)

val bytes : 'v t -> int
(** Live bytes — never exceeds [max_bytes]. *)

val high_water : 'v t -> int
(** Maximum {!size} ever observed (the bounded-occupancy evidence the
    benchmark reports). *)

val high_water_bytes : 'v t -> int

val mem : 'v t -> int -> bool
val find : 'v t -> int -> 'v option
(** A hit refreshes recency. *)

val take : 'v t -> int -> 'v -> [ `Stored | `Rejected ]
(** Admit a bundle, evicting LRU entries as needed. [`Rejected] only
    when the bundle alone exceeds [max_bytes]. Re-taking a held key
    replaces the stored value. *)

val release : 'v t -> int -> bool
(** Downstream took over (custody ACK): drop our copy. [false] if the
    key was not held. *)

val evict_lru : 'v t -> int option
(** Forcibly evict the least-recently-used bundle (reported as
    {!Evict}). *)

val fold : (int -> 'v -> 'a -> 'a) -> 'v t -> 'a -> 'a
(** Most recently used first. *)

val set_observer : 'v t -> (event -> unit) -> unit
(** Called on every transition, after the store's own accounting —
    the hook {!Dip_core.Custody} counts through (the env's
    ["custody.*"] handles) and uses for depth gauges and Flight
    instants. *)

(** A priority queue of timestamped events — the heart of the
    discrete-event simulator that stands in for the paper's hardware
    testbed (see DESIGN.md §2).

    Ordering is by time, ties broken by insertion order so that the
    simulation is fully deterministic. *)

type 'a t

val create : unit -> 'a t
val size : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:float -> 'a -> unit
(** Schedule an event. [time] must be finite and non-negative. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event. *)

val peek : 'a t -> (float * 'a) option
(** The earliest event without removing it — what the simulator's
    run loop inspects to decide whether the head runs now, joins the
    current batch, or waits past [until]. A {!pop} straight after a
    [peek] returns the same value without allocating again. *)

val vacant_slots_cleared : 'a t -> bool
(** [true] iff no slot beyond the live heap still holds a popped
    event. Always [true] for a correct implementation — exposed so
    tests can assert that popping does not retain dead payloads. *)

val clear : 'a t -> unit

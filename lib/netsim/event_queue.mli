(** A priority queue of timestamped events — the heart of the
    discrete-event simulator that stands in for the paper's hardware
    testbed (see DESIGN.md §2).

    Ordering is by time, ties broken by insertion order so that the
    simulation is fully deterministic.

    {b Layout.} A binary heap stored as a struct of arrays ({!Keys}):
    the keys sit in an unboxed [float array] of times and an
    [int array] of insertion sequence numbers, beside an [int array]
    mapping each heap position to the slot that holds its payload. A
    sift moves only those three unboxed words. Each payload is written
    once, into a slot taken from a free-slot stack, at {!push}, and
    the slot is reset to the queue's [filler] at {!drop_min}, so a
    popped payload is never retained.

    {b The lane.} A push no earlier than the lane's last event (any
    push, when the lane is empty) goes to a FIFO ring instead of the
    heap: its seq is the newest, so the ring is already in key order.
    Events pushed in time order (a round of injections, a timer
    rearmed from its own firing) cost O(1) to push and to pop; an
    earlier push goes to the heap, and the head is the earlier, by
    key, of the ring's head and the heap's root. The ring's vacated
    cells are reset to [filler] as the heap's slots are.

    {b Allocation.} Once the queue has reached its working capacity,
    {!push} and {!drop_min} allocate nothing. The arrays double when
    full and stay at that size while the queue runs empty and refills,
    so a queue that keeps draining and refilling (one packet in flight)
    does not regrow them each time. {!release} drops them; the
    simulator calls it when a run returns with the queue empty.

    {b Reading the head.} The run loop reads the earliest event with
    {!min_time} and {!min_payload}, then removes it with {!drop_min};
    none of them builds an option or a tuple. {!min_seq} reads the
    head's insertion sequence number, the tie-break half of its key. *)

(** The heap without its payloads, for an owner that keeps payloads
    by slot: keys [(times.(i), seqs.(i))] and payload slots
    [slots.(i)] at heap positions [0 .. len - 1], and the stack of
    vacant slots [free.(0 .. capacity - len - 1)], its top last. A
    queue ({!t}) is one of these beside a payload table, and the
    lane. The simulator's heap of busy links is another: it writes
    each key from a link's own ring straight into [times] and [seqs]
    and sifts it there, since a computed [float] passed to a call that ocamlopt
    does not inline is boxed (the release build inlines small
    functions across modules, but [--profile dev] compiles each
    module opaquely, and a function can outgrow [-inline 200]). *)
module Keys : sig
  type t = {
    mutable times : float array;
    mutable seqs : int array;
    mutable slots : int array;
    mutable free : int array;
    mutable len : int;
  }

  val create : unit -> t
  val capacity : t -> int

  val ensure : t -> bool
  (** Make room for one more key: when every slot is live, double the
      capacity and return [true], so the owner grows its payload table
      with {!fit}. *)

  val fit : t -> 'a array -> 'a -> 'a array
  (** [fit k a fill] is [a] extended with [fill] to [capacity k]. *)

  val add : t -> int
  (** The key the owner wrote at position [len] joins the heap: it
      takes the top vacant slot, which is returned for the owner's
      payload, and sifts toward the root. *)

  val sift_down : t -> from:int -> unit
  (** Place the key at position [from] at the root and sift it toward
      the leaves: [~from:0] after the owner re-keyed the root. *)

  val remove_min : t -> unit
  (** Drop the root: its slot goes back on the free stack and the last
      key sifts into its place. *)

  val release : t -> unit
  (** Drop the arrays. For an empty heap only. *)
end

type 'a t

val create : filler:'a -> 'a t
(** An empty queue. [filler] is the value vacant payload slots hold;
    it is never returned. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:float -> 'a -> unit
(** Schedule an event. [time] must be finite and non-negative. *)

val reserve_seq : 'a t -> int
(** Take the next insertion sequence number without pushing an event.
    A key [(time, reserve_seq q)] orders against the queued events
    exactly as a {!push} made at that moment would: the simulator keys
    a link's departures and in-order arrivals this way without
    queueing them, and merges the links' earliest arrivals with this
    queue's head by [(min_time, min_seq)]. *)

val min_time : 'a t -> float
(** Time of the earliest event. Raises [Invalid_argument] if the queue
    is empty. *)

val min_payload : 'a t -> 'a
(** Payload of the earliest event. Raises [Invalid_argument] if the
    queue is empty. *)

val min_seq : 'a t -> int
(** Insertion sequence number of the earliest event. Raises
    [Invalid_argument] if the queue is empty. *)

val drop_min : 'a t -> unit
(** Remove the earliest event. Raises [Invalid_argument] if the queue
    is empty. *)

val release : 'a t -> unit
(** Drop an empty queue's arrays, so an idle queue holds no storage;
    a non-empty queue is left as it is. The sequence counter is kept:
    keys stay ordered across a release. *)

val vacant_slots_cleared : 'a t -> bool
(** [true] iff every payload slot not referenced by a live event, in
    the heap's slot table and in the lane's ring, holds the filler.
    Always [true] for a correct implementation — exposed so tests can
    assert that popping does not retain dead payloads. It
    allocates nothing and reads each slot and each live position once,
    so a test may call it after every operation. *)

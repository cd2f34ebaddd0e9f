(** Packet-journey tracing.

    A trace records, per node, what happened to traffic (received /
    consumed / dropped with reason) with timestamps. Debugging aid
    for examples and experiment post-mortems: render a journey to see
    where a packet died.

    Packets are identified by a caller-chosen fingerprint — by
    default the CRC-32 of the buffer at observation time. Packets
    that are rewritten in flight (TTL decrements etc.) change their
    default fingerprint; pass a [fingerprint] that reads an invariant
    field to follow them across hops.

    Events are indexed by fingerprint, so {!journey} costs only the
    matching packet's events, and the log is bounded: past
    [max_events] new events are counted in {!dropped_events} instead
    of recorded, so a long soak cannot grow the trace without
    bound. *)

type event_kind =
  | Received of Sim.port
  | Consumed
  | Dropped of string

type event = { time : float; node : string; kind : event_kind }

type t

val attach :
  ?fingerprint:(Dip_bitbuf.Bitbuf.t -> int32) ->
  ?max_events:int ->
  Sim.t ->
  t
(** Start recording; local deliveries are captured automatically via
    the simulator's consume hook. Once [max_events] (default
    1_000_000, must be [>= 1]) events have been recorded,
    further events are dropped and counted. *)

val wrap : t -> name:string -> Sim.handler -> Sim.handler
(** Wrap a node's handler (use the same [name] as its
    {!Sim.add_node}) so its receptions and drops are recorded. *)

val events : t -> event list
(** All recorded events in time order (stable for equal
    timestamps). *)

val journey : t -> int32 -> event list
(** Events whose packet fingerprint matched, in time order. Costs
    O(events of that packet), not O(all events). *)

val event_count : t -> int
(** Events currently recorded. *)

val dropped_events : t -> int
(** Events discarded because the [max_events] cap was reached. *)


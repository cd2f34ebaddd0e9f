(** The discrete-event network simulator.

    This is the testbed substitute (DESIGN.md §2): nodes are hosts or
    routers identified by small integers, links connect (node, port)
    pairs with latency and bandwidth, and packets are opaque
    {!Dip_bitbuf.Bitbuf.t} buffers handed to per-node handlers. A
    handler decides, per packet, which ports to forward on, whether
    to consume locally, or to drop.

    The simulation is deterministic: same topology, same injections,
    same handler logic → identical event order. *)

type t
type node_id = int
type port = int

(** What a node does with a received packet. *)
type action =
  | Forward of port * Dip_bitbuf.Bitbuf.t
      (** Transmit (a possibly rewritten) packet out of a port. *)
  | Consume  (** Deliver to the local stack; counted as received. *)
  | Drop of string  (** Discard, with a reason for the counters. *)

type handler = t -> now:float -> ingress:port -> Dip_bitbuf.Bitbuf.t -> action list
(** Invoked once per packet arrival. The handler may also call
    {!schedule} for timers (e.g. PIT expiry sweeps). *)

val create : unit -> t

val add_node : t -> name:string -> handler -> node_id
(** Register a node. Names appear in counters and traces: the node's
    ["<name>.rx"/".tx"/".consumed"] handles are registered here, in
    the simulator's own registry ({!counters}). *)

val node_name : t -> node_id -> string
val node_count : t -> int

val set_handler : t -> node_id -> handler -> unit
(** Replace a node's handler in place (the node keeps its id, name,
    and links). Used by {!Faults} to crash and restart nodes. *)

val node_handler : t -> node_id -> handler
(** The node's current handler — save it before {!set_handler} to be
    able to restore it. *)

val connect :
  t ->
  ?latency:float ->
  ?bandwidth:float ->
  ?queue_capacity:int ->
  node_id * port ->
  node_id * port ->
  unit
(** Bidirectional link. [latency] (seconds, default [1e-6]) is the
    propagation delay; [bandwidth] (bytes/second, default infinite)
    adds a serialization delay of [size / bandwidth] {e and}
    serializes transmissions: a packet must wait for the packets
    ahead of it on the same direction of the link. [queue_capacity]
    (default unbounded) bounds how many packets may be waiting or in
    flight on one direction; beyond it the transmitter drop-tails
    (counted as ["<name>.drop.queue-overflow"]). The capacity bound
    and the in-flight count apply to infinite-bandwidth links too: a
    packet occupies its queue slot from transmit until its departure
    instant (zero serialization time, but same-instant bursts still
    accumulate depth and can overflow). At the departure instant
    itself the slot is taken for events queued before the transmit
    and free for events queued after it. [latency] must be finite and
    non-negative, else [Invalid_argument].

    Each direction keeps its packets from transmit until arrival in
    its own FIFO: departures are in transmit order and the latency is
    constant, so they arrive in that order too, and neither their
    departures nor their arrivals are events in the event queue. A
    packet that an egress hook delays ({!set_egress_hook}) may be
    overtaken, so its arrival is queued as an event instead.

    Ports are numbered from 0: each node keeps its links in an array
    indexed by port, grown to the highest port wired, so keep port
    numbers small and dense. A negative port, or one already wired,
    raises [Invalid_argument]. *)

val queue_depth : t -> node_id -> port -> int
(** Packets currently queued or serializing on the egress direction
    of a port (0 for unwired ports, including any port number past
    the node's highest wired one) — what an {i F_tel}-style telemetry
    hook reports. *)

val neighbor : t -> node_id -> port -> (node_id * port) option
(** The far end of a link, if wired. *)

val inject : t -> at:float -> node:node_id -> port:port -> Dip_bitbuf.Bitbuf.t -> unit
(** Present a packet to [node] as if it arrived on [port] at [at].
    [port] does not need to be wired — hosts inject on a virtual
    port. [at] must not be before {!now}: an earlier time raises
    [Invalid_argument], so the clock never runs backwards. *)

val schedule : t -> at:float -> (t -> unit) -> unit
(** Run a callback at simulated time [at], which must not be before
    {!now} (else [Invalid_argument]). An event at exactly [now t]
    runs after every event already queued for that instant. *)

val now : t -> float
(** Current simulated time (0 before the first event). *)

val run : ?until:float -> t -> unit
(** Process events in order until nothing is pending or the next
    event is after [until]. The next event is the earliest, by time
    and then by the order it was scheduled in, of the event queue's
    head (injections, timers, delayed packets) and the links' oldest
    packets in flight; a link's packet takes its place in that order
    when it is transmitted. A run stopped at [until] leaves every link
    as if each departure at or before [until] had been an event: their
    slots are free, and the clock is at the latest of them when that
    is later than the last event; packets still in flight stay on
    their links for the next run. There is one event loop: [run] is
    {!run_batched} with no batchable node, so every arrival goes
    through its node's handler the moment it is popped. *)

type batch_item = {
  b_node : node_id;
  b_port : port;  (** ingress port *)
  b_time : float;  (** arrival instant *)
  b_packet : Dip_bitbuf.Bitbuf.t;
}

val run_batched :
  ?until:float ->
  ?window:float ->
  t ->
  batchable:(node_id -> bool) ->
  exec:(batch_item array -> action list array) ->
  unit
(** {!run}, except that maximal runs of consecutive arrivals at
    [batchable] nodes spanning at most [window] seconds (default 0 —
    same-instant arrivals only) are collected and handed to [exec]
    as one batch instead of going through the nodes' handlers. This
    is the hook a domain-parallel data plane ({!Dip_mcore.Runner})
    plugs into: [exec] may compute the per-packet action lists on
    worker domains, but the results are {e applied} on the calling
    domain, in arrival order, before the loop pops any later event —
    so the schedule (and hence delivery counts and counters) is a
    function of [window] and the workload only, never of how many
    domains [exec] used. Timer events and arrivals at non-batchable
    nodes close the pending batch and run normally. Arrivals from a
    link's FIFO join windows as queued arrivals do. Departures are
    not events — each link keeps its own FIFO of departure keys,
    retired when its depth is read — so they never close a window.
    [exec] must return exactly one action list per item; it must not
    touch the simulator.

    The clock never decreases within a run. A window wider than a
    link's latency can schedule, while it is applied, an arrival
    earlier than its last member: that arrival runs after the window,
    with {!now} still at the last member's time, and its handler sees
    that time as [~now]. At [~window:0.0] no effect precedes its
    cause, and the run is exactly {!run}'s. *)

val counters : t -> Stats.Counters.t
(** The simulator's registry, where it counts each fact once. Per
    node: ["<name>.rx"], ["<name>.tx"], ["<name>.consumed"] and
    ["<name>.drop.<reason>"] (each reason interned per node on first
    use); for all links, the ["sim.link.queue_depth"] histogram
    (egress depth observed at each enqueue). Add-on layers register
    their handles here too: ["sim.fault.<kind>"] ({!Faults}) and
    ["custody.replay"] ([Dip_core.Custody]). Every per-event write is
    a store through a pre-registered handle; no counter name is built
    or hashed per packet. A handle that was never written is not
    listed by {!Stats.Counters.to_list}. An exporter
    {!Dip_obs.Metrics.absorb}s this registry into its own. *)

val on_consume : t -> (node_id -> float -> Dip_bitbuf.Bitbuf.t -> unit) -> unit
(** Add a hook invoked at each local delivery with the node, the
    delivery time and the packet. The simulator keeps no log of
    deliveries (a long run would hold every packet it delivered): a
    caller that wants one records it here. *)

type egress = { packet : Dip_bitbuf.Bitbuf.t; extra_delay : float }
(** One transmission produced by an egress hook: the (possibly
    rewritten) packet, plus extra propagation delay in seconds
    (clamped to ≥ 0; does not occupy the egress queue slot, so a
    delayed packet can be overtaken — i.e. reordered). *)

val set_egress_hook :
  t -> (t -> from:node_id * port -> Dip_bitbuf.Bitbuf.t -> egress list) -> unit
(** Install a hook consulted on every transmission over a {e wired}
    link (unwired-port drops bypass it). The hook maps the outgoing
    packet to the transmissions that actually happen: [[]] drops it,
    one entry passes (or corrupts / delays) it, two entries duplicate
    it. Normal queue accounting (capacity, serialization, tx counters)
    applies to each returned entry. Replaces any previous hook. *)

val set_flight : t -> Dip_obs.Flight.ring option -> unit
(** Arm (or disarm) a flight-recorder ring for simulator-side events,
    written from the domain driving the simulator: per
    {!run_batched} window, a ["sim.window.submit"] instant as it is
    handed to [exec] (a0 = items, a1 = window sequence number) and a
    ["sim.window.apply"] span once [exec] returned (a0 = ns spent
    applying the results, a1 = items, a2 = window sequence number);
    {!Faults} additionally records ["sim.fault.<kind>"] instants into
    the same ring. *)

val flight : t -> Dip_obs.Flight.ring option

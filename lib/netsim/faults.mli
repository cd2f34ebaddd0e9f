(** Deterministic fault injection for the simulator.

    Attaches to a {!Sim.t} through its egress hook and handler-swap
    API and injects link-level faults — probabilistic drop, single
    byte corruption, duplication, extra-delay jitter (reordering) —
    plus scheduled link down/up windows and node crash/restart.

    All randomness comes from one {!Dip_stdext.Prng} stream seeded at
    {!attach}: because the simulator's event order is itself
    deterministic, the same seed over the same workload produces an
    identical fault schedule. Every injected fault has one name,
    ["sim.fault.<kind>"]: it is counted once under it, in the
    simulator's {!Sim.counters} (handles registered at {!attach};
    {!counts} reads them), and recorded under it in the simulator's
    flight ring ({!Sim.set_flight}; a0 = node, a1 = port). The layer
    keeps no log of the faults it injected. *)

type t

(** Per-egress fault probabilities. All probabilities are per
    transmission, in [\[0, 1\]]; [jitter] is the maximum extra
    propagation delay in seconds (uniform draw in [\[0, jitter)]). *)
type spec = {
  drop : float;
  corrupt : float;  (** XOR a random nonzero value into one random byte. *)
  duplicate : float;  (** Transmit an extra, independently jittered copy. *)
  jitter : float;
}

val spec :
  ?drop:float ->
  ?corrupt:float ->
  ?duplicate:float ->
  ?jitter:float ->
  unit ->
  spec
(** All fields default to 0 (fault disabled). Raises
    [Invalid_argument] on a probability outside [\[0, 1\]] or a
    negative [jitter]. *)

val attach : seed:int64 -> Sim.t -> t
(** Install the fault layer (replaces any existing egress hook). With
    no specs or windows configured it passes every packet through
    untouched. *)

val all_links : t -> spec -> unit
(** Set the spec applied to every wired egress. *)

val link_down : t -> Sim.node_id * Sim.port -> from_:float -> until:float -> unit
(** Schedule a down window for the link wired at [(node, port)]:
    within [\[from_, until)] every transmission in {e either}
    direction is dropped ({!Link_down}). Raises
    [Invalid_argument] if the port is unwired or the window is
    empty. *)

val on_link_up : t -> Sim.node_id * Sim.port -> (float -> unit) -> unit
(** Subscribe to link-up at a directed endpoint: the callback fires
    (with the current time) whenever a {!link_down} window covering
    [(node, port)] ends and no other window still covers it.
    Subscribers registered after the window was scheduled still
    fire — lookup happens at window end. Multiple subscribers fire
    in registration order. Raises [Invalid_argument] on a negative
    node or port. *)

val crash_node : t -> Sim.node_id -> at:float -> until:float -> unit
(** Schedule a crash: at [at] the node's handler is replaced by a
    black hole that drops every arrival ({!Node_crash}); when
    the last covering window ends the true pre-crash handler is
    restored. Any state the handler closure held survives — the
    crash models a dataplane outage, not a state wipe. Windows for
    one node may overlap or nest; the node is down for exactly the
    union of its windows. *)

(** What was injected. *)
type kind = Link_down | Drop | Corrupt | Reorder | Duplicate | Node_crash

val counts : t -> (string * int) list
(** Faults injected so far by kind name (["link-down"], ["drop"],
    ["corrupt"], ["reorder"], ["duplicate"], ["node-crash"]) — the
    simulator's ["sim.fault.<kind>"] counters — sorted; kinds that
    never fired are not listed. *)

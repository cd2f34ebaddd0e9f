(** XIA forwarding: fallback traversal of DAG addresses.

    A router owns a forwarding table (XID → port) and a set of local
    XIDs (identities it terminates: its AD, its HID, services and
    content it hosts). Processing a packet whose address pointer sits
    at DAG node [ptr]:

    + while some successor of [ptr] is {e local}, advance the pointer
      to it (first such successor in priority order); if the pointer
      reaches the intent, the packet is delivered — this is
      {i F_intent};
    + otherwise take the first successor with a forwarding-table
      route and transmit on that port — the fallback order is
      exactly the successor priority order — without moving the
      pointer (the pointer moves only at the node that owns the
      XID); this is the routing half of {i F_DAG};
    + if no successor is local or routable, discard.

    The router has no packet form of its own: the DIP realization
    places [ptr byte ∥ DAG] in the FN locations region (paper §3: "we
    set the header of XIA in the FN locations"), in {!Dag.to_wire}'s
    encoding, and F_DAG / F_intent walk it where it lies: {!check}
    validates it, then {!advance}, {!next_hop} and {!owns_intent}
    read only the pointer node's successor lists and their XIDs. The
    tables are keyed by an int hash of an XID's 21 wire bytes
    ({!Dip_tables.Slots}), and a hit is checked against those bytes,
    so a hop allocates nothing. *)

type t

val create : unit -> t

val add_route : t -> Xid.t -> Dip_netsim.Sim.port -> unit
val add_local : t -> Xid.t -> unit

val is_local : t -> Xid.t -> bool
val route : t -> Xid.t -> Dip_netsim.Sim.port option
(** The tables by XID value; the wire functions below look an XID up
    by its bytes in the packet. *)

(** The wire functions below take the bytes [b] and the position
    [pos] of the pointer byte. *)

type check =
  | Valid
  | Empty  (** no pointer byte *)
  | Malformed  (** no nodes, truncated, an unknown XID kind, an edge
                   that does not go forward to a node, or an
                   unreachable intent *)
  | Bad_pointer  (** the pointer is past the intent *)

val check : t -> Bytes.t -> pos:int -> len:int -> check
(** Validate the [len] bytes at [pos] as [ptr byte ∥ DAG ∥ …]. The
    functions below require [Valid]. *)

val advance : t -> Bytes.t -> pos:int -> int
(** The pointer after stepping through locally owned successors. *)

val at_intent : Bytes.t -> pos:int -> int -> bool
(** Whether a pointer is at the intent, the last node. *)

val next_hop : t -> Bytes.t -> pos:int -> ptr:int -> int
(** The port of [ptr]'s first routable successor, or -1: a dead end. *)

val owns_intent : t -> Bytes.t -> pos:int -> bool

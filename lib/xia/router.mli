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
    set the header of XIA in the FN locations"), and F_DAG / F_intent
    call {!decode_slice} and {!step} on it. *)

type t

val create : unit -> t

val add_route : t -> Xid.t -> Dip_netsim.Sim.port -> unit
val add_local : t -> Xid.t -> unit
val is_local : t -> Xid.t -> bool
val route : t -> Xid.t -> Dip_netsim.Sim.port option

type verdict =
  | Forward of Dip_netsim.Sim.port * int  (** port, updated pointer *)
  | Deliver of int  (** pointer reached the intent *)
  | Discard of string

val step : t -> Dag.t -> ptr:int -> verdict
(** One fallback traversal step on a parsed address. *)

val decode_slice : Bytes.t -> pos:int -> len:int -> (Dag.t * int * int, string) result
(** [decode_slice b ~pos ~len] decodes the [len] bytes of [b] at [pos]
    as [ptr byte ∥ DAG ∥ …] in place — an F_DAG / F_intent target
    field: [Ok (dag, ptr, stop)] with [stop] the position just past
    the DAG, or ["empty packet"], ["malformed DAG"], ["bad pointer"]. *)

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

    The packet wire format is [ptr byte ∥ DAG ∥ payload]; the DIP
    realization instead places the same bytes in the FN locations
    region (paper §3: "we set the header of XIA in the FN
    locations"). *)

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

(** {1 Native packet form} *)

val encode_packet : Dag.t -> ptr:int -> payload:string -> Dip_bitbuf.Bitbuf.t

val decode_slice : Bytes.t -> pos:int -> len:int -> (Dag.t * int * int, string) result
(** [decode_slice b ~pos ~len] decodes the [len] bytes of [b] at [pos]
    as [ptr byte ∥ DAG ∥ …] in place: [Ok (dag, ptr, stop)] with
    [stop] the position just past the DAG, or ["empty packet"],
    ["malformed DAG"], ["bad pointer"]. *)

val decode_packet : Dip_bitbuf.Bitbuf.t -> (Dag.t * int * string, string) result
(** {!decode_slice} over the whole packet, with the bytes after the
    DAG as the payload. *)

val set_ptr : Dip_bitbuf.Bitbuf.t -> int -> unit

val process : t -> Dip_bitbuf.Bitbuf.t -> verdict
(** Decode, {!step}, and write the updated pointer back in place. *)

val handler : t -> Dip_netsim.Sim.handler

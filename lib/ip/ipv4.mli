(** IPv4 header codec and native forwarding — the paper's "IPv4
    forwarding" baseline in Figure 2 and the 20-byte row of Table 2.

    A faithful 20-byte RFC 791 header (no options) with the Internet
    checksum, so the native baseline does the same per-hop work a
    real IP router does: parse, checksum-verify, LPM, TTL decrement,
    incremental checksum update, emit. *)

type header = {
  src : Dip_tables.Ipaddr.V4.t;
  dst : Dip_tables.Ipaddr.V4.t;
  ttl : int;
  protocol : int;
  payload_len : int;
}

val header_size : int
(** 20 bytes. *)

val encode : header -> payload:string -> Dip_bitbuf.Bitbuf.t
(** Serialize header + payload with a correct checksum. *)

val decode : Dip_bitbuf.Bitbuf.t -> (header, string) result
(** Parse and verify: version, header length, checksum, total
    length. Returns [Error reason] on malformed packets. *)

type route_table = Dip_netsim.Sim.port Dip_tables.Fib.V4.t
(** Routes live in the DIR-24-8 flat-array engine
    ({!Dip_tables.Fib.V4}) — what a real line card holds. *)

val add_route : route_table -> Dip_tables.Ipaddr.Prefix.t -> Dip_netsim.Sim.port -> unit
(** Install a v4 prefix route. Raises [Invalid_argument] on a v6
    prefix. *)

type verdict =
  | Forward of Dip_netsim.Sim.port
  | Deliver  (** addressed to this router/host *)
  | Discard of string

val forward :
  ?local:Dip_tables.Ipaddr.V4.t -> route_table -> Dip_bitbuf.Bitbuf.t -> verdict
(** One native forwarding step: validate, check for local delivery,
    LPM, TTL decrement with the RFC 1624 incremental checksum update
    (mutating the packet; a TTL of 0 or 1 is discarded as
    ["ttl-expired"] and left unchanged). This is the function the
    Figure 2 baseline times ([dip figure2]). *)

val handler : ?local:Dip_tables.Ipaddr.V4.t -> route_table -> Dip_netsim.Sim.handler
(** Wrap {!forward} as a simulator node. *)

(** IPv6 header codec and native forwarding — the "IPv6 forwarding"
    baseline of Figure 2 and the 40-byte row of Table 2.

    A fixed 40-byte RFC 8200 header. IPv6 has no header checksum, so
    the per-hop work is parse, LPM over 128 bits, hop-limit
    decrement, emit. *)

type header = {
  src : Dip_tables.Ipaddr.V6.t;
  dst : Dip_tables.Ipaddr.V6.t;
  hop_limit : int;
  next_header : int;
  payload_len : int;
}

val header_size : int
(** 40 bytes. *)

val encode : header -> payload:string -> Dip_bitbuf.Bitbuf.t
val decode : Dip_bitbuf.Bitbuf.t -> (header, string) result

type route_table = Dip_netsim.Sim.port Dip_tables.Fib.V6.t
(** Routes live in the compressed stride-8 multibit trie
    ({!Dip_tables.Fib.V6}). *)

val add_route : route_table -> Dip_tables.Ipaddr.Prefix.t -> Dip_netsim.Sim.port -> unit

type verdict =
  | Forward of Dip_netsim.Sim.port
  | Deliver
  | Discard of string

val forward : route_table -> Dip_bitbuf.Bitbuf.t -> verdict

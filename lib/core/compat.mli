(** Incremental deployment and backward compatibility — §2.4.

    Two mechanisms:

    - {b Tunneling}: "two DIP domains may not be directly connected.
      One could use tunneling technology to build an end-to-end path
      across DIP-agnostic domains." {!encapsulate_ipv4} wraps a DIP
      packet in a plain IPv4 header (IANA-style protocol number
      0xFD, from the experimentation range) so legacy routers forward it; the far
      border router {!decapsulate_ipv4}s.

    - {b Header strip/restore}: "the existing network protocol header
      can be viewed as an FN location … the border router can remove
      the basic header and FN definitions, so that the packet is
      routed only based on the FN operations that are recognized by
      the legacy devices. Similarly, to process packets from a legacy
      domain, the inbound border router needs to add back the DIP
      basic header and FN definitions." {!strip} emits
      locations ∥ payload; {!restore} re-frames them. *)

val encapsulate_ipv4 :
  src:Dip_tables.Ipaddr.V4.t ->
  dst:Dip_tables.Ipaddr.V4.t ->
  Dip_bitbuf.Bitbuf.t ->
  Dip_bitbuf.Bitbuf.t
(** Wrap a DIP packet for transit through a DIP-agnostic IPv4
    domain (TTL 64). *)

val decapsulate_ipv4 : Dip_bitbuf.Bitbuf.t -> (Dip_bitbuf.Bitbuf.t, string) result
(** Unwrap at the far tunnel endpoint; rejects non-tunnel packets. *)

val strip : Dip_bitbuf.Bitbuf.t -> (Dip_bitbuf.Bitbuf.t, string) result
(** Egress border router: drop the basic header and FN definitions,
    leaving the FN locations (the legacy header) and payload. *)

val restore :
  fns:Fn.t list ->
  ?hop_limit:int ->
  ?parallel:bool ->
  loc_len:int ->
  Dip_bitbuf.Bitbuf.t ->
  (Dip_bitbuf.Bitbuf.t, string) result
(** Ingress border router: re-add the basic header and the FN
    definitions this AS uses, taking the first [loc_len] bytes of
    the legacy packet as the FN locations. *)

(** Protocol realization using DIP — paper §3.

    Each function builds the DIP packet for one of the five realized
    protocols, using the paper's FN triples verbatim (keys follow
    Table 1):

    - {b IPv4}: (loc 0, len 32, key 1) destination match and
      (loc 32, len 32, key 3) source; destination in the lower 32
      bits of the FN locations, source in the upper 32.
    - {b IPv6}: (loc 0, len 128, key 2) and (loc 128, len 128, key 3).
    - {b NDN}: interests carry (loc 0, len 32, key 4) — {i F_FIB} —
      and data packets (loc 0, len 32, key 5) — {i F_PIT} — over the
      32-bit hashed content name of the prototype (§4.1).
    - {b OPT}: (loc 128, len 128, key 6), (loc 0, len 416, key 7),
      (loc 288, len 128, key 8) for the routers and
      (loc 0, len 544, key 9) host-tagged for the destination; the
      OPT header occupies the FN locations.
    - {b NDN+OPT}: the NDN forwarding FN composed with the four OPT
      FNs; the content name sits after the OPT region in the
      locations.
    - {b XIA}: (key 10) {i F_DAG} and (key 11) {i F_intent} over the
      XIA header (pointer + DAG) in the FN locations.

    With these layouts every Table 2 header size reproduces exactly
    (see {!header_overhead} and [dip sizes]). *)

module Name = Dip_tables.Name

val ipv4 :
  ?hop_limit:int ->
  src:Dip_tables.Ipaddr.V4.t ->
  dst:Dip_tables.Ipaddr.V4.t ->
  payload:string ->
  unit ->
  Dip_bitbuf.Bitbuf.t
(** DIP-32 forwarding (26-byte header). *)

val ipv6 :
  src:Dip_tables.Ipaddr.V6.t ->
  dst:Dip_tables.Ipaddr.V6.t ->
  payload:string ->
  unit ->
  Dip_bitbuf.Bitbuf.t
(** DIP-128 forwarding (50-byte header). *)

val ndn_interest :
  ?pass:Dip_crypto.Siphash.key ->
  name:Name.t ->
  payload:string ->
  unit ->
  Dip_bitbuf.Bitbuf.t
(** NDN interest (16-byte header; +10 with an {i F_pass} label). *)

val ndn_data :
  name:Name.t ->
  content:string ->
  unit ->
  Dip_bitbuf.Bitbuf.t
(** NDN data (16-byte header). *)

val opt :
  ?alg:Dip_opt.Protocol.alg ->
  hops:int ->
  session_id:int64 ->
  timestamp:int32 ->
  dest_key:Dip_opt.Drkey.session_key ->
  payload:string ->
  unit ->
  Dip_bitbuf.Bitbuf.t
(** OPT packet (98-byte header at one hop), seeded by the source. *)

val ndn_opt_interest :
  name:Name.t -> payload:string -> unit -> Dip_bitbuf.Bitbuf.t
(** The request side of NDN+OPT: plain {i F_FIB} forwarding. *)

val ndn_opt_data :
  hops:int ->
  session_id:int64 ->
  timestamp:int32 ->
  dest_key:Dip_opt.Drkey.session_key ->
  name:Name.t ->
  content:string ->
  unit ->
  Dip_bitbuf.Bitbuf.t
(** The secure content delivery packet (108-byte header at one hop):
    {i F_PIT} + the four OPT FNs; content name after the OPT region. *)

val xia :
  dag:Dip_xia.Dag.t -> payload:string -> unit -> Dip_bitbuf.Bitbuf.t
(** XIA over DIP: pointer + DAG in the FN locations. *)

val netfence :
  src:Dip_tables.Ipaddr.V4.t ->
  dst:Dip_tables.Ipaddr.V4.t ->
  sender:int32 ->
  rate:float ->
  timestamp:int32 ->
  payload:string ->
  unit ->
  Dip_bitbuf.Bitbuf.t
(** NetFence-over-DIP (extension, key 13): the congestion header in
    the locations, followed by dst/src for DIP-32 forwarding. FN
    order is F_cc, F_32_match, F_source, so policing precedes the
    forwarding decision. The NetFence region starts at the head of
    the FN locations; read feedback with
    [Dip_netfence.Header.get_flag buf ~base:view.loc_base]. *)

val ipv4_telemetry :
  max_hops:int ->
  src:Dip_tables.Ipaddr.V4.t ->
  dst:Dip_tables.Ipaddr.V4.t ->
  payload:string ->
  unit ->
  Dip_bitbuf.Bitbuf.t
(** DIP-32 forwarding with an in-band telemetry region (extension,
    key 14) sized for [max_hops] records. The telemetry region starts
    at the head of the FN locations. *)

val epic :
  hops:int ->
  src_id:int32 ->
  timestamp:int32 ->
  hop_keys:Dip_opt.Drkey.session_key list ->
  src:Dip_tables.Ipaddr.V4.t ->
  dst:Dip_tables.Ipaddr.V4.t ->
  payload:string ->
  unit ->
  Dip_bitbuf.Bitbuf.t
(** EPIC-over-DIP (extension, key 15), composed with DIP-32
    forwarding: the EPIC region (24 + 4·hops bytes) followed by
    dst/src in the FN locations. F_hvf runs before the forwarding
    FNs, so an invalid hop field is dropped before any route is
    taken. *)

type protocol =
  | P_ipv6_native
  | P_ipv4_native
  | P_dip128
  | P_dip32
  | P_ndn
  | P_opt
  | P_ndn_opt

val protocol_name : protocol -> string
(** Table 2's row labels. *)

val header_overhead : protocol -> int
(** Total header size in bytes — regenerates Table 2. *)

(** The host side of DIP — §2.3 "Host Constructions".

    "Before sending the data packets, the host needs to formulate
    appropriate FNs in the packet header considering both the
    required network services and the supported FNs."

    A {!t} bundles a host's environment (its {!Env.t}, used by the
    host-tagged operations such as {i F_ver}) with the set of FNs its
    attachment point offers (learned via {!Bootstrap}); every [send_*]
    constructor first checks its requirements against that offer and
    refuses with the missing keys instead of emitting a packet the
    network cannot process. *)

type t

val create : ?offer:Opkey.t list -> name:string -> unit -> t
(** A host. Without [offer] every operation is assumed available
    (an all-DIP network, the §2.3 simplification). *)

val env : t -> Env.t
(** The host's environment (session table, local addresses, …). *)

val attach : t -> Bootstrap.t -> as_id:int -> unit
(** DHCP-style bootstrap: adopt the access AS's offer (§2.3). Raises
    [Not_found] for an unknown AS. *)

val attach_path : t -> Bootstrap.t -> src:int -> dst:int -> (unit, string) result
(** BGP-community-style bootstrap: adopt the intersection of support
    along the AS path — the safe set for all-path operations. *)

val offer : t -> Opkey.t list option
(** Currently known offer ([None] = everything). *)

val check : t -> Opkey.t list -> (unit, Opkey.t list) result
(** Which of the required keys the network cannot serve. *)

type 'a construction = ('a, Opkey.t list) result
(** Either the packet, or the operation keys the attachment point
    lacks. *)

val send_ipv4 :
  t ->
  ?hop_limit:int ->
  src:Dip_tables.Ipaddr.V4.t ->
  dst:Dip_tables.Ipaddr.V4.t ->
  payload:string ->
  unit ->
  Dip_bitbuf.Bitbuf.t construction

val send_ipv6 :
  t ->
  ?hop_limit:int ->
  src:Dip_tables.Ipaddr.V6.t ->
  dst:Dip_tables.Ipaddr.V6.t ->
  payload:string ->
  unit ->
  Dip_bitbuf.Bitbuf.t construction

val send_interest :
  t ->
  ?hop_limit:int ->
  ?pass:Dip_crypto.Siphash.key ->
  name:Dip_tables.Name.t ->
  payload:string ->
  unit ->
  Dip_bitbuf.Bitbuf.t construction

val open_opt_session :
  t ->
  session_id:int64 ->
  path_secrets:Dip_opt.Drkey.secret list ->
  dst_secret:Dip_opt.Drkey.secret ->
  unit
(** Model of OPT key negotiation: derive and store the session keys
    of every on-path router plus the destination key, so incoming
    packets can be verified by {i F_ver}. The transport of the
    negotiation is elided (DESIGN.md §2). *)

val send_opt :
  t ->
  ?hop_limit:int ->
  session_id:int64 ->
  timestamp:int32 ->
  payload:string ->
  unit ->
  Dip_bitbuf.Bitbuf.t construction
(** Build an OPT packet for a previously opened session. Raises
    [Not_found] if the session is unknown. *)

val send_data :
  t ->
  ?hop_limit:int ->
  ?pass:Dip_crypto.Siphash.key ->
  name:Dip_tables.Name.t ->
  content:string ->
  unit ->
  Dip_bitbuf.Bitbuf.t construction
(** An NDN data packet (producer side). *)

val send_xia :
  t ->
  ?hop_limit:int ->
  dag:Dip_xia.Dag.t ->
  payload:string ->
  unit ->
  Dip_bitbuf.Bitbuf.t construction

val send_epic :
  t ->
  ?hop_limit:int ->
  src_id:int32 ->
  timestamp:int32 ->
  path_secrets:Dip_opt.Drkey.secret list ->
  src:Dip_tables.Ipaddr.V4.t ->
  dst:Dip_tables.Ipaddr.V4.t ->
  payload:string ->
  unit ->
  Dip_bitbuf.Bitbuf.t construction
(** EPIC composed with DIP-32 forwarding; hop keys are derived from
    the path secrets obtained at setup (DRKey model). *)

val receive :
  t ->
  registry:Registry.t ->
  now:float ->
  Dip_bitbuf.Bitbuf.t ->
  Engine.verdict
(** Run the host side of Algorithm 1 (host-tagged FNs only). *)

(** A minimal reliable transport over DIP-32 forwarding, built for
    the fault-injection experiments ({!Dip_netsim.Faults}).

    Data and ACK packets are ordinary DIP-32 packets (F_32_match +
    F_source), so any router stack routes them; the locations region
    additionally carries a 32-bit sequence number and a CRC-32 over
    [locations\[0..12)] + payload (the basic header is excluded — hop
    limit legitimately mutates in flight). Receivers drop packets
    failing the CRC with reason {!Errors.integrity_reason} and dedup
    by sequence number, re-ACKing duplicates; senders retransmit on a
    timer with exponential backoff plus seeded uniform jitter. All
    randomness is a {!Dip_stdext.Prng} stream, so runs are
    deterministic per seed. *)
module Reliable : sig
  module Sim = Dip_netsim.Sim

  val data_next_header : int
  (** 0xFD — reliable data. *)

  val ack_next_header : int
  (** 0xFC — reliable ACK. *)

  val self_port : Sim.port
  (** The virtual ingress the sender self-injects (re)transmissions
      on (timers cannot return [Forward] actions). Must not be wired
      on a sender node. *)

  type config = {
    rto : float;  (** initial retransmit timeout, seconds *)
    backoff : float;  (** timeout multiplier per retry, ≥ 1 *)
    rto_max : float;  (** ceiling the backed-off timeout is clamped to
                          (before jitter); must be ≥ [rto] *)
    max_jitter : float;  (** uniform extra timeout in [\[0, max_jitter)] *)
    max_retries : int;  (** retransmissions after the first try; 0 disables
                            retransmission entirely *)
  }

  val default_config : config
  (** [rto = 50ms; backoff = 2; rto_max = ∞; max_jitter = 5ms;
      max_retries = 8]. The infinite [rto_max] preserves the historic
      unclamped backoff. *)

  type sender

  val add_sender :
    ?config:config ->
    ?custody:bool ->
    Sim.t ->
    name:string ->
    seed:int64 ->
    src:Dip_tables.Ipaddr.V4.t ->
    dst:Dip_tables.Ipaddr.V4.t ->
    out_port:Sim.port ->
    sender
  (** Create the sending endpoint as a simulator node. Wire its
      [out_port] toward the network; ACKs are accepted on any wired
      ingress. With [~custody:true] every data packet carries the
      F_cust custody-request FN ({!Custody}): custodian routers along
      the path may take over delivery, in which case the sender stops
      retransmitting as soon as the first hop-local custody ACK
      arrives (counted in [custodied], not [acked]). *)

  val send : sender -> at:float -> payload:string -> unit
  (** Queue one payload for reliable delivery at simulated time
      [at]. Sequence numbers are assigned in call order. *)

  val sender_node : sender -> Sim.node_id

  type sender_stats = {
    sent : int;  (** unique payloads handed to {!send} *)
    transmissions : int;  (** wire transmissions incl. retransmits *)
    acked : int;  (** end-to-end ACKs *)
    custodied : int;  (** sequences handed off to a custodian router *)
    gave_up : int;  (** sequences abandoned after [max_retries] *)
    in_flight : int;  (** sent, not yet acked, custodied or abandoned *)
  }

  val sender_stats : sender -> sender_stats

  type receiver

  val add_receiver : Sim.t -> name:string -> receiver * Sim.node_id
  (** Create the receiving endpoint as a simulator node. Valid new
      data is [Consume]d (so {!Sim.on_consume} hooks see it) and
      ACKed out the ingress port; duplicates are re-ACKed and counted;
      CRC failures drop with {!Errors.integrity_reason}. *)

  val deliveries : receiver -> (int32 * float) list
  (** First delivery of each sequence, in delivery order. *)

  val delivered : receiver -> int
  (** Unique sequences delivered. *)

  val duplicates : receiver -> int
  val rejected : receiver -> int
  (** Packets dropped by the integrity check. *)
end

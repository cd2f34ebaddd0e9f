(** The host side of DIP beyond a single packet. A host builds its
    packets with {!Realize}, checks them against its attachment
    point's offer with {!Bootstrap.plan} and runs its host-tagged FNs
    with {!Engine.host_process}; what is left here is state that
    spans packets. *)

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
      ingress. Timers cannot return [Forward] actions, so the sender
      self-injects every (re)transmission on port 99: leave that
      port unwired on a sender node. With [~custody:true] every data packet carries the
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

  (** {2 The wire}

      What the endpoints run on each packet. Every packet is a copy of
      a template {!Packet.build} made once, with its varying bytes
      written; every packet received is read where it lies. *)

  type data_template
  (** The bytes before the payload of one sender's data packets. *)

  val data_template :
    custody:bool ->
    dst:Dip_tables.Ipaddr.V4.t ->
    src:Dip_tables.Ipaddr.V4.t ->
    data_template

  val data : data_template -> seq:int32 -> payload:string -> Dip_bitbuf.Bitbuf.t
  (** The data packet for [seq]: the template, the payload, the
      sequence number (also the bundle id, with custody) and the
      CRC. *)

  type kind =
    | Data
    | Ack
    | Cust_ack  (** a hop-local custody ACK ({!Custody.ack_next_header}) *)
    | Other  (** another protocol's packet *)
    | Corrupt  (** the CRC does not match *)
    | Invalid of string  (** why the header or the region is malformed *)

  val classify : Dip_bitbuf.Bitbuf.t -> kind

  (** The fields of a [Data] or [Ack] packet. *)

  val dst : Dip_bitbuf.Bitbuf.t -> Dip_tables.Ipaddr.V4.t
  val src : Dip_bitbuf.Bitbuf.t -> Dip_tables.Ipaddr.V4.t
  val seq : Dip_bitbuf.Bitbuf.t -> int32

  val custody_requested : Dip_bitbuf.Bitbuf.t -> bool
  (** Whether a [Data] or [Ack] packet carries the custody region with
      the request bit set. *)

  val bundle : Dip_bitbuf.Bitbuf.t -> int32
  (** The bundle id of a [Cust_ack], or of the custody region of a
      packet {!custody_requested} accepts. *)

  val ack_of : Dip_bitbuf.Bitbuf.t -> Dip_bitbuf.Bitbuf.t
  (** The receiver's end-to-end ACK of a [Data] packet. *)
end

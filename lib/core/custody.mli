(** Custody transfer — DTN disruption tolerance as an FN realization.

    Hop-by-hop custody beats end-to-end retransmission when
    disconnections outlast any sane RTO: instead of the source
    retrying across the whole path, each supporting router {e takes
    custody} of a bundle (stores a copy, bounded by
    {!Dip_tables.Custody_store}), ACKs one hop upstream (releasing
    the upstream copy), and puts held bundles back on the wire when
    the downstream link comes up (or on a periodic safety sweep).

    The realization is a single ignorable FN, {i F_cust} (key 16),
    over a 5-byte region in the locations: one tag byte
    (custody-requested / in-custody / custody-ACK bits) and a 32-bit
    bundle id. Placed after the {!Host.Reliable} layout the
    end-to-end CRC never covers it, so custodians may mutate it in
    flight; routers without the operation installed skip it per §2.4
    and the packet degrades gracefully to pure end-to-end recovery. *)

val region_bytes : int
(** 5 — tag byte + 32-bit bundle id. *)

val region_bits : int

val flag_request : int
(** bit 0: the source asks on-path routers to take custody. *)

val flag_in_custody : int
(** bit 1: some upstream custodian holds a copy (set by each taker —
    the FN's declared [W_node] write). *)

val flag_ack : int
(** bit 2: this packet is a hop-local custody ACK. *)

val ack_next_header : int
(** 0xFB — the custody-ACK packet (a single-F_cust program). *)

val replay_port : Dip_netsim.Sim.port
(** 98 — virtual ingress for retransmissions out of the custody
    store; {!add_router} turns such arrivals into direct forwards.
    Must not be wired. *)

val fn_at : loc:int -> Fn.t
(** The F_cust FN definition for a region at bit offset [loc]. *)

val set_region : Bytes.t -> off:int -> flags:int -> bundle:int32 -> unit
(** Write a custody region into a locations buffer being built. *)

val read_flags : Dip_bitbuf.Bitbuf.t -> base:int -> int
val read_bundle : Dip_bitbuf.Bitbuf.t -> base:int -> int32
(** Read the region at absolute byte offset [base] of a packet. *)

val build_ack : bundle:int32 -> Dip_bitbuf.Bitbuf.t
(** The hop-local custody ACK for [bundle]. *)

type config = {
  capacity : int;  (** max bundles held per router *)
  max_bytes : int;  (** max stored bytes per router *)
  retry : float;
      (** seconds between safety replay sweeps (covers lost custody
          ACKs); 0 disables the sweep — link-up replay still works *)
  retry_until : float;
      (** stop re-arming the sweep past this simulated time, so a
          run with permanently stranded bundles still terminates *)
}

val default_config : config
(** 1024 bundles / 1 MiB / 0.5 s sweep, no deadline. *)

val enable : ?config:config -> Env.t -> Dip_bitbuf.Bitbuf.t Dip_tables.Custody_store.t
(** Give an environment a custody store (making its F_cust take
    custody) without simulator wiring — for driving
    {!Engine.process} directly in tests. *)

(** A simulator router that takes custody. *)
type router

val add_router :
  ?obs:Obs.t ->
  ?flight:Dip_obs.Flight.ring ->
  ?config:config ->
  Dip_netsim.Sim.t ->
  registry:Registry.t ->
  env:Env.t ->
  name:string ->
  out_port:Dip_netsim.Sim.port ->
  unit ->
  router
(** Add a custodial router node: the full engine handler plus a
    custody store on [env], a replay path out of [out_port], and the
    periodic safety sweep. Store transitions and replays land in
    [flight] as instants ([custody.take/release/evict/reject/replay]),
    the transitions in the env's counters and the replays in the
    simulator's ({!Dip_netsim.Sim.counters}) under the same names,
    through handles registered here. Each is counted once; an export
    that absorbs both registries carries every custody name. *)

val node : router -> Dip_netsim.Sim.node_id
val env : router -> Env.t
val replay : router -> unit
(** Put every held bundle back on the wire now — what the
    {!Dip_netsim.Faults.on_link_up} hook should call. *)

val stats : router -> (string * int) list
(** [take/release/evict/reject] — the env's ["custody.*"] counters —
    plus current [held], [high-water] occupancy and
    [high-water-bytes]. *)

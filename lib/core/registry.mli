(** The operation-module registry and the semantics shared by all
    operation implementations.

    "Runtime programmability has not yet been implemented on Barefoot
    Tofino, so we pre-write the required operation modules on the
    data plane and use the operation key to match these operation
    modules" (§4.1). A registry is a node's installed set of
    operation modules; heterogeneous deployments (§2.4) are nodes
    with different registries. *)

(** What one operation may do. Algorithm 1 executes {e all} FNs of a
    packet, so a forwarding choice must not abort the loop — an
    NDN+OPT interest both matches the FIB and updates MAC tags. *)
type outcome =
  | Continue  (** pure field manipulation; keep going *)
  | Set_route of Env.port list
      (** propose forwarding port(s); first proposal wins *)
  | Deliver_local  (** propose local delivery *)
  | Respond of Dip_bitbuf.Bitbuf.t
      (** answer with a new packet out of the ingress port (e.g. a
          content-store hit turning an interest into data) *)
  | Silent  (** drop the loop without error (aggregated interest) *)
  | Abort of string  (** security/sanity failure: drop now *)

(** Everything an operation sees per packet: node state, the packet
    and per-packet scratch. Its FN and target are not here: they were
    given to the operation when the program was compiled ({!impl}).
    The engine reuses one record per node ({!Env.ctx}), rewriting the
    mutable fields once per packet, so an operation must not keep the
    record (or [view]) past its own call. [view] is the cached
    program's: its [header.hop_limit] is not the packet's — read the
    live hop limit from byte 2 of [view.buf]. *)
type ctx = Env.ctx = {
  env : Env.t;
  mutable view : Packet.view;
  mutable ingress : Env.port;
  mutable now : float;
  scratch : scratch;
  budget : Guard.budget;  (** §2.4 per-packet state/ops allowance *)
}

(** Per-packet scratch shared between the FNs of one packet: F_parm
    deposits the expanded OPT key here, F_MAC/F_mark consume it, and
    F_cust pushes auxiliary transmissions (custody ACKs) onto [emit]
    for {!Engine.actions_of_verdict} to drain. The engine reuses the
    node's one record (in {!Env.ctx}) rather than allocating per
    packet. *)
and scratch = Env.scratch = {
  mutable opt_key : Dip_opt.Protocol.key option;
  mutable emit : Dip_netsim.Sim.action list;
}

type impl = Fn.t -> Dip_bitbuf.Field.t -> ctx -> outcome
(** One operation module, staged. The engine applies it once per
    compiled program, to the FN and the FN's target — Algorithm 1's
    [target_field], resolved to an absolute bit range in the packet —
    and keeps the [ctx -> outcome] it returns, which runs per packet.
    Checks that depend only on the FN and its target (a length, a
    byte alignment, a region's offset) are settled in that first
    application; an operation that fails one returns a constant
    [Abort] with the same reason it would give per packet. *)

(** {1 Transfer functions}

    An operation's transfer function says {e which bit slices} of its
    target it reads and writes, how the written value relates to the
    packet, which scratch cells ({!scratch}) it consumes or produces,
    and whether it may pick a route or propose local delivery. This is
    the declared abstract semantics the {!Dip_analysis} interpreter
    executes, and the one row per key that the verifier's races and
    dependencies, {!Dip_mcore.Flow}'s shard key and the host-tag
    check read. *)

type span = { s_off : int; s_len : int }
(** A slice of the FN's target field, in bits relative to the target's
    own offset. [s_len = -1] means "to the end of the target". *)

(** How a written slice relates to the inputs — this is what the
    Sharding check keys on:
    - [W_step]: a deterministic in-place step of the field's own value
      (e.g. F_dag advancing the XIA DAG pointer). Every replica
      applies the same rewrite, so flow affinity survives.
    - [W_node]: node-local data appended/overwritten (telemetry
      records, congestion feedback) — different per node and hop.
    - [W_data]: packet- or key-derived data (MACs, per-hop validation
      fields). *)
type written_kind = W_step | W_node | W_data

type transfer = {
  t_reads : span list;  (** slices of the target the FN reads *)
  t_reads_region : bool;
      (** reads the whole locations region beyond its target (F_pass
          hashes every byte of the region) *)
  t_writes : (span * written_kind) list;  (** slices the FN writes *)
  t_consumes : string list;  (** scratch cells read (e.g. ["opt_key"]) *)
  t_produces : string list;  (** scratch cells written *)
  t_match : bool;
      (** matches the target value against a node table to pick a
          route, so may return [Set_route]/[Deliver_local] on a router
          (the slice {!Dip_mcore.Flow} hashes on) *)
  t_deliver : bool;  (** may propose local delivery *)
}

val transfer : Opkey.t -> transfer
(** The declared transfer function of an operation key. Total: every
    key in Table 1 (plus this repo's extensions) has a row. The six
    keys with [t_match] are the forwarding ones; a router skips a
    host-tagged one. *)

val resolve_span :
  field:Dip_bitbuf.Field.t -> region_bits:int -> span ->
  Dip_bitbuf.Field.t option
(** Resolve a target-relative span against a concrete FN target field,
    clipping to the target and to the locations region. [None] when
    the clipped slice is empty. *)

type t

val empty : unit -> t
val install : t -> Opkey.t -> impl -> unit
(** Pre-write an operation module; replaces an existing one. *)

val uninstall : t -> Opkey.t -> unit
val find : t -> Opkey.t -> impl option

val generation : t -> int
(** Bumped by every {!install} and {!uninstall}. The engine's compiled
    programs record it (with the registry's physical identity) and
    recompile when it moved, so a direct registry change reaches the
    next packet without {!Progcache.clear}. *)

val supports : t -> Opkey.t -> bool
val supported : t -> Opkey.t list
(** Installed keys in key order — what the §2.3 bootstrap
    advertises. *)

val restrict : t -> Opkey.t list -> t
(** A copy supporting only the listed keys (heterogeneous-AS
    configurations, §2.4). *)

(** Per-node environment: the state the FN operation modules operate
    against.

    A DIP node (router or host) owns the classic dataplane state —
    IP route tables, the NDN FIB/PIT/content-store, the XIA
    forwarding table — plus the DIP-specific state: its OPT local
    secret and hop position, its {i F_pass} source-label key, and the
    security-guard configuration of §2.4. The operation modules in
    {!Ops} read and update exactly this record, which is what makes
    the "common network function core shared by these L3 protocols"
    concrete: every realized protocol runs against the same tables. *)

type port = Dip_netsim.Sim.port

(** Per-packet scratch shared between the FNs of one packet (F_parm
    deposits the derived OPT key, expanded once, and F_MAC/F_mark
    consume it; F_dag leaves in [dag] its decoded DAG with the target
    bytes after the pointer byte it was decoded from, and F_intent
    reuses the DAG only while its own target bytes after the pointer
    byte equal those). Owned by
    the environment's {!ctx} so the engine reuses one record per node
    instead of allocating per packet; {!Dip_core.Engine} resets it
    before each run, so nothing in it outlives a packet.

    [emit] is the auxiliary-transmission channel: an operation that
    must put an {e extra} packet on the wire without deciding the
    current packet's fate (F_cust's hop-by-hop custody ACK) pushes
    [(egress_port, packet)] here and returns [Continue];
    {!Dip_core.Engine.actions_of_verdict} drains it into leading
    [Forward] actions. *)
type scratch = {
  mutable opt_key : Dip_opt.Protocol.key option;
  mutable dag : (string * Dip_xia.Dag.t) option;
  mutable emit : (Dip_netsim.Sim.port * Dip_bitbuf.Bitbuf.t) list;
}

(** Handles into [counters], registered by {!create}: what the
    engine's per-packet path counts ({!Engine.actions_of_verdict},
    {!publish_cache_stats}, F_cust's ACK) is a field store through
    one of these, and each fact has this one handle — an {!Obs}
    observer counts none of them again. {!Custody} and {!Control}
    register their ["custody.*"] / ["control.*"] handles in the same
    registry when they are wired to the node. *)
type counts = {
  forwarded : Dip_obs.Metrics.counter;  (** ["dip.forwarded"] *)
  delivered : Dip_obs.Metrics.counter;  (** ["dip.delivered"] *)
  responded : Dip_obs.Metrics.counter;  (** ["dip.responded"] *)
  quiet : Dip_obs.Metrics.counter;  (** ["dip.quiet"] *)
  dropped : Dip_obs.Metrics.family;  (** ["dip.drop.<reason>"] *)
  unsupported : Dip_obs.Metrics.family;  (** ["dip.unsupported.<F_key>"] *)
  pc_hit : Dip_obs.Metrics.counter;
      (** ["progcache.hit"], {!Progcache.stat_name}, as are the next two *)
  pc_miss : Dip_obs.Metrics.counter;  (** ["progcache.miss"] *)
  pc_evict : Dip_obs.Metrics.counter;  (** ["progcache.evict"] *)
  custody_ack : Dip_obs.Metrics.counter;  (** ["custody.ack"] *)
}

(** The context an operation module runs against — {!Registry.ctx},
    which documents the fields. Each node owns one, created with it;
    {!Dip_core.Engine} rewrites the mutable fields per FN instead of
    allocating a record per FN. *)
type ctx = {
  env : t;
  mutable view : Packet.view;
  mutable fn : Fn.t;
  mutable target : Dip_bitbuf.Field.t;
  mutable ingress : port;
  mutable now : float;
  scratch : scratch;
  budget : Guard.budget;
}

and t = {
  name : string;
  (* IP state (F_32_match / F_128_match): the at-scale LPM engines —
     DIR-24-8 flat arrays for v4, a compressed multibit trie for v6
     (see {!Dip_tables.Fib}). Tables are lazily sized, so idle Envs
     stay cheap. *)
  v4_routes : port Dip_tables.Fib.V4.t;
  v6_routes : port Dip_tables.Fib.V6.t;
  mutable local_v4 : Dip_tables.Ipaddr.V4.t option;
  mutable local_v6 : Dip_tables.Ipaddr.V6.t option;
  (* NDN state (F_FIB / F_PIT); the prototype forwards on 32-bit
     hashed content names (§4.1), so the PIT and cache are keyed by
     the hash. *)
  fib : port Dip_tables.Name_fib.t;
  pit : int32 Dip_tables.Pit.t;
  cache : (int32, string) Dip_tables.Lru.t option;
  interest_lifetime : float;
  (* OPT state (F_parm / F_MAC / F_mark): the router's long-term
     secret and which OPV slot it fills on this path. *)
  mutable opt_secret : Dip_opt.Drkey.secret option;
  mutable opt_hop : int;
  opt_alg : Dip_opt.Protocol.alg;
  (* Host-side OPT verification state (F_ver): session id →
     (per-hop session keys, destination key). *)
  opt_sessions : (int64, Dip_opt.Drkey.session_key list * Dip_opt.Drkey.session_key) Hashtbl.t;
  (* XIA state (F_DAG / F_intent). *)
  xia : Dip_xia.Router.t;
  (* F_pass (§2.4): AS-wide source-label key; verification can be
     enabled on the fly when an attack is detected. *)
  mutable pass_key : Dip_crypto.Siphash.key option;
  mutable pass_enabled : bool;
  (* NetFence-style congestion policing (F_cc, key 13). *)
  mutable netfence : Dip_netfence.Policer.t option;
  (* In-band telemetry (F_tel, key 14): this node's id and a hook
     reporting the current queue depth. *)
  mutable node_id : int;
  mutable queue_depth : unit -> int;
  (* §2.4 security guard: hard limits on per-packet work/state. *)
  guard : Guard.t;
  (* This node's counter registry, read through the
     {!Dip_netsim.Stats.Counters} view, and the handles into it. *)
  counters : Dip_netsim.Stats.Counters.t;
  counts : counts;
  (* Hot-path state: the reused operation context (which carries the
     per-packet scratch and guard budget) and the decoded-FN-program
     cache. *)
  ctx : ctx;
  prog_cache : Progcache.t;
  (* Custody transfer (F_cust, key 16): the bounded per-router bundle
     store, keyed by bundle id (the 32-bit id as an [int], so a probe
     boxes nothing). [None] (default) means this node
     never takes custody — F_cust then ignores the FN per §2.4. *)
  mutable custody :
    (int, Dip_bitbuf.Bitbuf.t) Dip_tables.Custody_store.t option;
}

val create :
  ?cache_capacity:int ->
  ?pit_capacity:int ->
  ?interest_lifetime:float ->
  ?opt_alg:Dip_opt.Protocol.alg ->
  ?guard:Guard.t ->
  ?prog_cache_capacity:int ->
  name:string ->
  unit ->
  t
(** Fresh empty environment. [cache_capacity = 0] (default) disables
    the content store, matching the paper's prototype.
    [prog_cache_capacity] (default 512) bounds the decoded-FN-program
    cache; [0] disables it so every packet is cold-parsed. *)

val set_opt_identity : t -> secret:Dip_opt.Drkey.secret -> hop:int -> unit
(** Give a router its OPT role: local secret and 1-based OPV slot. *)

val register_opt_session :
  t ->
  session_id:int64 ->
  session_keys:Dip_opt.Drkey.session_key list ->
  dest_key:Dip_opt.Drkey.session_key ->
  unit
(** Host-side: record the keys learned during OPT key negotiation so
    {i F_ver} can validate incoming packets. *)

val enable_pass : t -> key:Dip_crypto.Siphash.key -> unit
(** Switch {i F_pass} verification on ("can be enabled on the fly
    upon detecting content poisoning attacks", §2.4). *)

val disable_pass : t -> unit

val set_netfence : t -> Dip_netfence.Policer.t -> unit
(** Install a congestion policer (makes this node a NetFence
    bottleneck router). *)

val set_telemetry_identity : t -> node_id:int -> queue_depth:(unit -> int) -> unit
(** Configure what {i F_tel} records at this node. *)

val cache_find : t -> int32 -> string option
val cache_insert : t -> int32 -> string -> unit
(** Hashed-name content store access (no-ops when the cache is
    disabled). *)

val publish_cache_stats : t -> unit
(** Copy the program-cache hit/miss/evict totals into
    {!field-counters} as ["progcache.hit"] / ["progcache.miss"] /
    ["progcache.evict"]: three stores through the {!counts} handles,
    no name lookup. The only place those totals reach a registry:
    {!Engine.handler} and {!Engine.host_handler} call it after every
    packet, {!Engine.process_batch} and {!Dip_mcore.Pool} once per
    batch; call it manually when driving {!Engine.process}
    directly. *)

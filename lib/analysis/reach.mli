(** Topology-wide symbolic reachability (§2.4).

    Propagates the abstract packet node by node across a
    {!Dip_netsim.Topology.t}: at each node the FN program runs
    abstractly against that node's registry, the first match FN's
    abstract value picks the successor set (a known value follows the
    node's route table; a rewritten/unknown value fans out to every
    route target), and states are joined to a fixpoint. Detects:

    - {b Loop}: a directed cycle in the traversed forwarding edges —
      nothing but basic-header hop-limit expiry bounds the packet;
    - {b Blackhole}: a reachable node with no route for the (known)
      match value, or no forwarding FN executing at all;
    - {b Deployment}: a reachable node missing a mandatory key —
      including nodes only reached {e after} an upstream FN rewrote
      the match field, which the shortest-path walk of
      {!Dip_analysis.check_deployment} cannot see. *)

type node = {
  n_registry : Dip_core.Registry.t option;
      (** [None] means every key is installed *)
  n_routes : (string * int) list;
      (** route table: exact match-field bytes
          ({!Dip_bitbuf.Bitbuf.get_field} convention) to next node *)
  n_local : string list;  (** match values delivered locally *)
}

type config = {
  c_topology : Dip_netsim.Topology.t;
  c_node : int -> node;
  c_src : int;
  c_dst : int;
}

val match_field : Dip_core.Fn.t list -> Dip_bitbuf.Field.t option
(** The region-relative target field of the first FN whose transfer
    row matches a node table ([t_match]) — the slice routing keys on
    and {!Dip_mcore.Flow} hashes.
    [None] when the program has no forwarding FN. *)

val match_value : Dip_core.Packet.view -> string option
(** The concrete bytes of {!match_field} in a parsed packet — handy
    for building route tables keyed the way {!check_view} compares. *)

val check_view : config -> Dip_core.Packet.view -> Report.diag list
(** Run the reachability pass for one parsed packet injected at
    [c_src] toward [c_dst]: the packet's locations region seeds the
    store, so match values are its concrete bytes. *)

(** XIA DAG addresses.

    An XIA destination address is a directed acyclic graph of XIDs.
    Forwarding starts at a virtual source node; at each step the
    router considers the current node's out-edges {e in priority
    order} and takes the first one it can make progress on — the
    "fallback" mechanism that lets new XID types coexist with
    routable legacy ones. The distinguished {e intent} node is what
    the sender ultimately wants (paper §1, §3: {i F_DAG} "parses the
    directed acyclic graph", {i F_intent} "handles the intent").

    Node 0 is always the virtual source; the intent is always the
    last node. Edges go from lower to higher indices (acyclicity by
    construction). *)

type t

val make : nodes:Xid.t array -> edges:int list array -> t
(** [nodes] are the real nodes (index 1..n in the DAG; the virtual
    source is index 0 and is not included). [edges.(i)] are the
    priority-ordered successors of DAG index [i] ([0] = the virtual
    source, real nodes start at 1). Raises [Invalid_argument] if an
    edge goes backwards/self, targets an unknown node, the graph has
    no nodes, or the intent (last node) is unreachable. *)

val direct : Xid.t -> t
(** The trivial address: source → intent. *)

val fallback : intent:Xid.t -> via:Xid.t list -> t
(** The canonical XIA fallback pattern: source tries the intent
    directly, else routes through [via] (e.g. AD → HID), and each
    [via] node also points at the intent. *)

val node_count : t -> int
(** Real nodes (excluding the virtual source). *)

val node : t -> int -> Xid.t
(** [node t i] for [i] in [\[1, node_count\]]. *)

val successors : t -> int -> int list
(** Priority-ordered successors of a DAG index (0 = virtual source). *)

val intent_index : t -> int
val intent : t -> Xid.t

val to_wire : t -> string

val pp : Format.formatter -> t -> unit

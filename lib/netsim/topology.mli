(** Topology builders and route computation.

    Experiments need reproducible topologies: a linear chain for the
    per-hop processing measurements (the paper evaluates OPT with one
    hop, §4.1), WAN-like graphs, fat-trees, and small random graphs
    for robustness tests.

    A topology is described abstractly (adjacency with link
    parameters) and then {e instantiated} onto a {!Sim.t} once the
    caller has chosen a handler per node. Port numbers are assigned
    deterministically: node [u]'s port to neighbor [v] is the index
    of [v] in [u]'s sorted adjacency list.

    That adjacency is built once, by {!make}, when the topology is
    made: [adj.(u)] is [u]'s neighbours, sorted and without
    duplicates, so port [p] of [u] leads to [adj.(u).(p)]. Every
    query below reads it — {!port_of} in O(log degree), a BFS in
    O(nodes + edges) — and none rescans the edge list. *)

type edge = { u : int; v : int; latency : float; bandwidth : float }

type t = private {
  node_count : int;
  edges : edge list;
  adj : int array array;  (** Read-only: per node, its sorted neighbours. *)
}

val make : node_count:int -> edge list -> t
(** A topology of nodes [0 .. node_count - 1] over [edges] (either
    direction; a repeated edge counts once). Raises
    [Invalid_argument] on an endpoint outside that range. *)

val linear : int -> t
(** [linear n] is a chain of [n] nodes ([n >= 1]):
    0 – 1 – … – (n-1), over default links. *)

val random : seed:int64 -> nodes:int -> degree:int -> t
(** A connected random graph: a spanning backbone plus extra edges
    until the average degree target is met. Deterministic in
    [seed]. *)

val fat_tree : ?latency:float -> ?bandwidth:float -> int -> t
(** [fat_tree k] is the canonical k-ary fat-tree data-center fabric
    ([k] even): [(k/2)²] core switches (nodes [0 ..]), then [k] pods
    of [k/2] aggregation + [k/2] edge switches with [k/2] hosts per
    edge switch. Every aggregation switch [j] uplinks to core group
    [j]; agg and edge switches form a full bipartite mesh inside the
    pod. [fat_tree 4] has 4 cores, 16 switches, 16 hosts. *)

val port_of : t -> int -> int -> int
(** [port_of t u v] is the port on [u] that reaches neighbor [v].
    Raises [Not_found] if the edge does not exist. *)

val neighbors : t -> int -> int list
(** Sorted adjacency list ([[]] for a node out of range). *)

val shortest_paths : t -> src:int -> int array
(** BFS hop-count predecessor array: [pred.(v)] is the previous hop
    on a shortest path from [src] to [v] ([-1] for [src] itself and
    for unreachable nodes). *)

val next_hop : t -> src:int -> dst:int -> int option
(** First hop on a shortest path from [src] to [dst]; [None] if
    unreachable, out of range or [src = dst]. *)

val path : t -> src:int -> dst:int -> int list option
(** The full node sequence [src; …; dst] of a shortest path, [None]
    when [dst] is unreachable (or either endpoint is out of range).
    [path t ~src ~dst = Some [src]] when [src = dst]. This is what
    the deployment checker walks to find on-path nodes missing a
    mandatory operation module (§2.4). *)

val instantiate : t -> Sim.t -> name:(int -> string) -> handler:(int -> Sim.handler) -> Sim.node_id array
(** Add every node to the simulator and wire every edge. Returns the
    simulator ids indexed by topology node. *)

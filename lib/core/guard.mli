(** The §2.4 security guard: "we should prevent packet processing
    from exhausting the router state. Enforcing a hard limit for
    packet processing time and per-packet state consumption is enough
    to prevent such attacks."

    The engine charges each executed operation and each byte of new
    router state against a per-packet budget; exceeding either limit
    aborts the packet. *)

type t

val create : ?max_ops:int -> ?max_state_bytes:int -> unit -> t
(** Defaults: 32 operations, 256 state bytes per packet. *)

val unlimited : unit -> t
(** No limits (for ablation baselines). *)

type budget
(** The remaining allowance of one packet. *)

val start : t -> budget

val restart : budget -> unit
(** Give a budget its full allowance back: the engine keeps one per
    node and restarts it per packet. *)

val charge_op : budget -> bool
(** Account one executed operation; [false] means the limit is
    exceeded and the packet must be dropped. *)

val charge_state : budget -> bytes:int -> bool
(** Account new router state (e.g. a PIT insertion). *)

val ops_used : budget -> int
val state_used : budget -> int

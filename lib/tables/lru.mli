(** A generic bounded LRU map.

    The backing store for every cache in the repository: the DIP
    engine's hashed-name content store, the native NDN forwarder's
    content store (keyed by canonical name), the custody store, and
    any per-flow state that must stay bounded per the §2.4
    state-consumption rule. *)

type ('k, 'v) t

val create : ?hash:('k -> int) -> ?equal:('k -> 'k -> bool) -> capacity:int -> unit -> ('k, 'v) t
(** Holds at most [capacity] entries ([>= 1]); the least recently
    used entry is evicted on overflow. [hash]/[equal] default to the
    polymorphic ones. *)

val capacity : ('k, 'v) t -> int
val size : ('k, 'v) t -> int

val insert : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or refresh. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** A hit refreshes recency. *)

val mem : ('k, 'v) t -> 'k -> bool
(** No recency effect. *)

val remove : ('k, 'v) t -> 'k -> bool
val clear : ('k, 'v) t -> unit

val peek_lru : ('k, 'v) t -> ('k * 'v) option
(** The least-recently-used binding, without refreshing recency —
    what {!Custody_store} inspects before deciding to evict. *)

val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a
(** Most recent first. *)

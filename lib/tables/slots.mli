(** An int-keyed slot table: the allocation-free core of the program
    cache, the PIT, the name FIB's hash index, the XIA tables, the
    content store and the custody store.

    Each key is given a slot, a small int its owner uses to index
    arrays of its own, as {!Fib.V4.lookup_int}'s ids do. Slots are
    chained per bucket through int arrays, so a probe allocates
    nothing; an ordered table also keeps them in recency order, and an
    owner that bounds its entries evicts {!lru}. The table starts at
    four slots and doubles only when full, so an idle node's tables
    stay small. A key's low bits pick its bucket, so keys must be
    hashes or dense ids, as every owner's are. A key may be added
    twice; the owner tells the slots apart ({!next}). *)

type t

val create : ordered:bool -> t
(** An ordered table keeps its slots in recency order: {!add} and
    {!touch} make a slot the most recent. An unordered one keeps no
    order and spends nothing on it. *)

val count : t -> int
(** Live slots. *)

val slots : t -> int
(** Length of the slot range: every slot is below it. An owner grows
    its arrays to it after {!add} ({!fit}). *)

val key : t -> int -> int

val find : t -> int -> int
(** A slot holding the key, or -1. *)

val next : t -> int -> int
(** Another slot holding the same key as the given one, or -1: from
    {!find}, every such slot once. *)

val add : t -> int -> int
(** A free slot, now holding the key and the most recent. *)

val remove : t -> int -> unit
(** Free a live slot. *)

val touch : t -> int -> unit
(** Make a live slot the most recent (nothing, if unordered). *)

val lru : t -> int
(** The least recent slot, or -1 when there is none or the table is
    unordered. *)

val iter : (int -> unit) -> t -> unit
(** Every live slot once, most recent first if ordered; the function
    may {!remove} the slot it is given. *)

val fit : 'a array -> t -> 'a -> 'a array
(** [fit a t v] is [a], or [a] extended with [v] to {!slots}[ t]. *)

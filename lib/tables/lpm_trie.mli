(** Longest-prefix-match binary trie.

    The forwarding table behind {i F_32_match} and {i F_128_match}:
    IP routers forward on the most specific matching prefix. The trie
    is generic over the value type and keyed on bit sequences so one
    implementation serves IPv4, IPv6, and the 32-bit hashed content
    names of the DIP prototype.

    Keys and prefixes are presented as bit accessors ([int -> bool],
    MSB first) plus a length, which avoids committing to an address
    representation here. *)

type 'a t

val create : unit -> 'a t
(** An empty table. *)

val size : 'a t -> int
(** Number of inserted prefixes. *)

val insert : 'a t -> bits:(int -> bool) -> len:int -> 'a -> unit
(** [insert t ~bits ~len v] binds the [len]-bit prefix to [v],
    replacing any previous binding of exactly that prefix. [len = 0]
    installs a default route. *)

val remove : 'a t -> bits:(int -> bool) -> len:int -> bool
(** Remove an exact prefix; returns whether it was present. Interior
    nodes left empty are pruned. *)

val find_exact : 'a t -> bits:(int -> bool) -> len:int -> 'a option
(** Exact-prefix lookup. *)

val lookup : 'a t -> bits:(int -> bool) -> len:int -> (int * 'a) option
(** [lookup t ~bits ~len] walks at most [len] key bits and returns
    [(prefix_len, value)] for the longest matching prefix, or [None]
    if not even a default route matches. *)

val lookup_ipv4 : 'a t -> int32 -> (int * 'a) option
(** [lookup_ipv4 t addr] is [lookup t ~bits:(Ipaddr.V4.bit addr)
    ~len:32] without the closure-per-bit cost: the 32 key bits are
    extracted by shifting directly, so a lookup allocates only the
    result pair. This is the hot-path entry for IPv4 tables and the
    baseline test/budgets.ml times {!Fib} against. *)

val fold : (int * bool list -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Fold over all bound prefixes; the key is given as
    [(len, bits MSB-first)]. Order is unspecified. *)

val depth : 'a t -> int
(** Height of the trie — a cheap structural statistic used by the
    table-scaling ablation. *)

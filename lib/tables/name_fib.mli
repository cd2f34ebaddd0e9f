(** The NDN forwarding information base: content-name prefix →
    forwarding port, matched by component-wise longest prefix.

    This is the table behind the paper's {i F_FIB} operation (key 4):
    "a forwarding information base \[that\] performs the longest
    prefix match with the content name" (§2.3). The DIP prototype
    additionally forwards on 32-bit hashed names; {!lookup_hash}
    serves that path via an exact-match index maintained alongside
    the component trie. *)

type 'a t

val create : unit -> 'a t
val size : 'a t -> int

val insert : 'a t -> Name.t -> 'a -> unit
(** Bind a name prefix; replaces an existing binding of the same
    prefix. *)

val remove : 'a t -> Name.t -> bool
(** Remove an exact prefix; returns whether it was present. *)

val lookup : 'a t -> Name.t -> (Name.t * 'a) option
(** Longest-prefix match: the most specific registered prefix of the
    queried name, with its value. *)

val find_hash : 'a t -> int -> 'a option
(** Exact match on the 32-bit hashed form of a registered prefix, as
    an unsigned [int] read off the packet — the prototype's
    forwarding path (§4.1). The index is int-keyed ({!Slots}): a hit
    allocates nothing. *)

val lookup_hash : 'a t -> int32 -> 'a option
(** {!find_hash} on the [int32] form {!Name.hash32} returns. *)

val fold : (Name.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

(** Hierarchical content names, NDN style.

    A name is a non-empty sequence of components, written
    ["/video/intro.mp4/seg3"]. NDN routers match names against FIB
    entries by {e component-wise} longest prefix (paper §3, NDN
    realization). The DIP prototype forwards on a {e 32-bit content
    name} (§4.1) — {!hash32} produces that compact form. *)

type t

val of_string : string -> t
(** Parse a ["/a/b/c"] (or ["a/b/c"]) name. Empty components are
    rejected; a name must have at least one component. *)

val to_string : t -> string
(** Canonical rendering with a leading slash. *)

val of_components : string list -> t
(** Build from components directly. Raises [Invalid_argument] on an
    empty list, empty components, or components containing ['/']. *)

val components : t -> string list
val prefix : t -> int -> t
(** [prefix n k] is the first [k] components ([1 <= k <= length n]). *)

val equal : t -> t -> bool
val hash32 : t -> int32
(** The prototype's 32-bit content-name form: SipHash of the
    canonical rendering folded to 32 bits. Stable across runs. *)

val to_wire : t -> string
(** Length-prefixed component encoding (1-byte count, then per
    component a 2-byte big-endian length and the bytes). *)

val of_wire : string -> t
(** Inverse of {!to_wire}. Raises [Invalid_argument] on truncated or
    trailing bytes. *)

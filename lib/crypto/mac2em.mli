(** The 2EM CBC-MAC: the MAC of the paper's {i F_MAC} and {i F_mark}
    (§4.1) and the PRF behind DRKey.

    Its tags are those of [Cbc_mac.Make (Even_mansour)] bit for bit:
    length-prefixed CBC-MAC over {!Even_mansour}. It is one fused
    kernel rather than that functor application because ocamlopt
    (closure mode, no flambda) does not inline a functor's argument
    into its body, so each block would pay calls, loads and stores
    that this module keeps in registers (see DESIGN.md). It allocates nothing
    beyond the tag {!mac} returns. *)

type key = Even_mansour.key

val expand_key : string -> key
(** The {!Even_mansour} key schedule. Raises [Invalid_argument]
    unless the key is 16 bytes. *)

val mac_into : key -> Bytes.t -> off:int -> len:int -> Bytes.t -> dst_off:int -> unit
(** [mac_into k src ~off ~len dst ~dst_off] writes the 16-byte tag
    over the [len] bytes of [src] at [off] into [dst] at [dst_off].
    The two ranges may overlap. Raises [Invalid_argument] if either
    is out of bounds. *)

val mac : key -> string -> string
(** [mac k msg] is the 16-byte tag over [msg] (any length). *)

val mac_truncated : key -> int -> string -> string
(** [mac_truncated k n msg] keeps the first [n] bytes of the tag.
    Raises [Invalid_argument] if [n] is not in [\[1, 16\]]. *)

val tags_equal : string -> string -> bool
(** Constant-time equality of two tags: whether they have the same
    length and the same bytes. *)

val verify : key -> tag:string -> string -> bool
(** Constant-time comparison of [tag] (possibly truncated) against
    the recomputed tag. *)

(** The 2EM CBC-MAC: the MAC of the paper's {i F_MAC} and {i F_mark}
    (§4.1) and the PRF behind DRKey.

    Its tags are those of [Cbc_mac.Make (Even_mansour)] bit for bit:
    length-prefixed CBC-MAC over {!Even_mansour}. It is one fused
    kernel rather than that functor application because ocamlopt
    (closure mode, no flambda) does not inline a functor's argument
    into its body, so each block would pay calls, loads and stores
    that this module keeps in registers (see DESIGN.md). It allocates nothing
    beyond the tag {!mac} returns.

    A MAC can also start from a stored CBC state: {!midstate_into}
    enciphers the length block once, and {!resume_into} continues
    from it. A PRF whose input always has the same length
    ({!Prf.frame}) pays for the length block once per key, not per
    call. *)

type key = Even_mansour.key

val expand_key : string -> key
(** The {!Even_mansour} key schedule. Raises [Invalid_argument]
    unless the key is 16 bytes. *)

val mac_into : key -> Bytes.t -> off:int -> len:int -> Bytes.t -> dst_off:int -> unit
(** [mac_into k src ~off ~len dst ~dst_off] writes the 16-byte tag
    over the [len] bytes of [src] at [off] into [dst] at [dst_off].
    The two ranges may overlap. Raises [Invalid_argument] if either
    is out of bounds. *)

val midstate_into : key -> len:int -> Bytes.t -> dst_off:int -> unit
(** [midstate_into k ~len dst ~dst_off] writes the 16-byte CBC state
    after the length block of a [len]-byte message: the state
    {!resume_into} continues from. Raises [Invalid_argument] if
    [len < 0] or the state does not fit in [dst]. *)

val resume_into :
  key -> Bytes.t -> st_off:int -> Bytes.t -> off:int -> len:int -> Bytes.t -> dst_off:int -> unit
(** [resume_into k st ~st_off src ~off ~len dst ~dst_off] continues a
    MAC from the 16-byte state of [st] at [st_off] over the [len]
    bytes of [src] at [off], and writes the tag into [dst] at
    [dst_off]. With the state {!midstate_into}[ k ~len] wrote, the
    tag is {!mac_into}'s over the same bytes. The ranges may overlap.
    Raises [Invalid_argument] if one is out of bounds. *)

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

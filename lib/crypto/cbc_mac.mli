(** CBC-MAC over any {!Block.S} cipher, with length prefixing.

    This is the concrete realization of the paper's {i F_MAC}
    operation module: a "cryptographic computing module (e.g., 2EM)"
    that on-path routers run to update authentication tags (§2.3).

    Plain CBC-MAC is only secure for fixed-length messages; we
    prepend the message length as the first block (the standard
    prefix-free encoding), so tags over different-length inputs are
    domain-separated. Tags may be truncated; OPT uses 128-bit tags.

    {!Make.mac} runs in place: one block-sized state per call, each
    message block XORed into it and the state enciphered with
    {!Block.S.encrypt_into}. The returned tag is that state, and the
    only allocation. No buffer is shared between calls, so MACs may
    run on several domains at once. *)

module Make (C : Block.S) : sig
  type key

  val expand_key : string -> key
  (** Raises [Invalid_argument] unless the key is [C.key_size] bytes. *)

  val mac : key -> string -> string
  (** [mac k msg] is the full [C.block_size]-byte tag over [msg]
      (any length, including empty). *)

  val mac_truncated : key -> int -> string -> string
  (** [mac_truncated k n msg] keeps the first [n] bytes of the tag.
      Raises [Invalid_argument] if [n] is not in [\[1, block_size\]]. *)

  val verify : key -> tag:string -> string -> bool
  (** Constant-time comparison of [tag] (possibly truncated) against
      the recomputed tag. *)

  val passes : int
  (** Pipeline passes per block, inherited from the cipher. *)
end

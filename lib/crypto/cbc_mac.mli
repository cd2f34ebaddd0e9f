(** CBC-MAC over any {!Block.S} cipher, with length prefixing.

    This is the concrete realization of the paper's {i F_MAC}
    operation module: a "cryptographic computing module (e.g., 2EM)"
    that on-path routers run to update authentication tags (§2.3).

    Plain CBC-MAC is only secure for fixed-length messages; we
    prepend the message length as the first block (the standard
    prefix-free encoding), so tags over different-length inputs are
    domain-separated. OPT uses full 128-bit tags.

    {!Make.mac_into} runs in place: one block-sized state per domain,
    each message block XORed into it where it lies and the state
    enciphered with {!Block.S.encrypt_into}; the tag is the state,
    copied out, so a MAC allocates nothing. Keys hold no state, so
    MACs may run on several domains at once.

    The functor serves AES (ablation A2). The 2EM MAC is the fused
    kernel {!Mac2em}, which gives the same tags. *)

module Make (C : Block.S) : sig
  type key = C.key

  val expand_key : string -> key
  (** Raises [Invalid_argument] unless the key is [C.key_size] bytes. *)

  val mac : key -> string -> string
  (** [mac k msg] is the full [C.block_size]-byte tag over [msg]
      (any length, including empty). *)

  val mac_into : key -> Bytes.t -> off:int -> len:int -> Bytes.t -> dst_off:int -> unit
  (** [mac_into k src ~off ~len dst ~dst_off] writes the tag over the
      [len] bytes of [src] at [off] into [dst] at [dst_off], as
      {!Mac2em.mac_into} does. The two ranges may overlap. Raises
      [Invalid_argument] if either is out of bounds. *)
end

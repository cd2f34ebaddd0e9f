(** Common signature for 128-bit block ciphers.

    The DIP prototype's MAC operation ({i F_MAC}, key 7) is built on a
    block cipher. The paper uses 2EM [Bogdanov et al. 2012] because it
    completes in a single Tofino pass, and mentions AES as the
    alternative that needs a packet resubmission (§4.1). Both live
    behind this signature so the benchmark harness can swap them. *)

module type S = sig
  val name : string

  val block_size : int
  (** Block size in bytes (16 for every cipher here). *)

  val key_size : int
  (** Expected key length in bytes. *)

  val passes : int
  (** How many PISA pipeline passes one block operation costs on the
      modelled switch: 1 for 2EM, >1 for AES (resubmission, §4.1).
      The {!Dip_pisa} cost model reads this. *)

  type key

  val expand_key : string -> key
  (** [expand_key raw] precomputes the key schedule. Raises
      [Invalid_argument] if [String.length raw <> key_size]. *)

  val encrypt_into : key -> Bytes.t -> int -> unit
  (** [encrypt_into k b off] enciphers the [block_size] bytes of [b]
      at [off] in place, allocating nothing. This is the kernel every
      MAC runs; it keeps no state between calls, so domains may share
      a key. Raises [Invalid_argument] if the block is not inside
      [b]. *)

  val encrypt_block : key -> string -> string
  (** [encrypt_block k block] enciphers exactly [block_size] bytes: a
      copy run through {!encrypt_into}. Raises [Invalid_argument] on a
      wrong-sized block. *)

  val decrypt_block : key -> string -> string
  (** Inverse of {!encrypt_block}. *)
end

(** {1 Helpers shared by the in-place ciphers}

    All work on 16-byte blocks; [who] names the caller in error
    messages. *)

val check_into : string -> Bytes.t -> int -> unit
(** [check_into who b off] raises [Invalid_argument] unless the 16
    bytes at [off] lie inside [b]. *)

val xor_into : Bytes.t -> int -> Bytes.t -> int -> unit
(** [xor_into b off k koff] XORs the 16 bytes of [k] at [koff] into
    [b] at [off], a 64-bit lane at a time: a round-key addition, or a
    CBC chaining step. *)

val on_copy : string -> ('k -> Bytes.t -> int -> unit) -> 'k -> string -> string
(** [on_copy who f k block] runs the in-place [f k] on a copy of
    [block] and returns the copy: the string API over an [_into]
    kernel. Raises [Invalid_argument] unless [block] is 16 bytes. *)

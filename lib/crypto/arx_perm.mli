(** A public, keyless, invertible 128-bit permutation built from
    add-rotate-xor rounds over two 64-bit lanes.

    This is the public permutation {i P} inside the Even–Mansour
    construction (see {!Even_mansour}). It is deliberately simple —
    ARX rounds map directly onto a programmable-switch ALU, which is
    the property that made 2EM attractive on Tofino in the paper's
    prototype (§4.1).

    The rounds run in place on 16 bytes of a buffer ({!forward_into},
    {!backward_into}) and allocate nothing; the tuple functions are
    wrappers over them. *)

type block = int64 * int64
(** A 128-bit block as two big-endian 64-bit lanes: [(hi, lo)] where
    [hi] holds bytes 0–7 of the wire representation. *)

val round_constants : int64 array
(** The [rounds] round constants, in order, for kernels that run the
    rounds inline ({!Mac2em}). Must not be mutated. *)

val forward_into : Bytes.t -> int -> unit
(** [forward_into b off] applies the permutation in place to the 16
    bytes of [b] at [off] (big-endian lanes, as {!block}). Raises
    [Invalid_argument] if they are not all inside [b]. *)

val backward_into : Bytes.t -> int -> unit
(** Inverse of {!forward_into}, in place. *)

val forward : block -> block
(** Apply the permutation. *)

val backward : block -> block
(** Invert the permutation: [backward (forward b) = b]. *)

val of_string : string -> block
(** Parse 16 big-endian bytes. Raises [Invalid_argument] otherwise. *)

val to_string : block -> string
(** Serialize to 16 big-endian bytes. *)

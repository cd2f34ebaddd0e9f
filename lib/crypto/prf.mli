(** Pseudo-random function for key derivation.

    OPT routers "derive a dynamic key from the session ID in the
    packet header with their local key" (paper §3). This module is
    that derivation: a PRF keyed with the router's local secret,
    applied to the session identifier (plus a context label for
    domain separation). Built as a CBC-MAC over 2EM, so a derivation
    is exactly the primitive the dataplane already has ({!Mac2em}).

    A router derives under one key and one label, from inputs of one
    length, on every packet: it builds a {!frame} once, and
    {!derive_into} then writes each key in place from the stored
    midstate. {!derive} and {!derive_int} frame their input once and
    run the whole MAC. *)

type key

val key_of_string : string -> key
(** 16-byte master secret. Raises [Invalid_argument] otherwise. *)

type frame
(** A key, a label and an input length: the framed buffer with the
    label written, and the MAC's state after its length block. A
    frame is written by every {!derive_into}: a domain needs its
    own. *)

val frame : key -> label:string -> input_len:int -> frame
(** Raises [Invalid_argument] if [input_len < 0]. *)

val derive_into : frame -> Bytes.t -> off:int -> Bytes.t -> dst_off:int -> unit
(** [derive_into f src ~off dst ~dst_off] writes the 16-byte key
    derived from the frame's [input_len] bytes of [src] at [off] into
    [dst] at [dst_off], allocating nothing. Raises [Invalid_argument]
    if either range is out of bounds. *)

val derive : key -> label:string -> string -> string
(** [derive k ~label input] is a 16-byte derived key. Distinct
    labels give independent keys for the same input. *)

val derive_int : key -> label:string -> int64 -> string
(** Convenience for 64-bit inputs such as numeric session IDs: the
    key derived from their 8 big-endian bytes. *)

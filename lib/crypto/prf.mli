(** Pseudo-random function for key derivation.

    OPT routers "derive a dynamic key from the session ID in the
    packet header with their local key" (paper §3). This module is
    that derivation: a PRF keyed with the router's local secret,
    applied to the session identifier (plus a context label for
    domain separation). Built as a CBC-MAC over 2EM, so a derivation
    is exactly the primitive the dataplane already has ({!Mac2em}). *)

type key

val key_of_string : string -> key
(** 16-byte master secret. Raises [Invalid_argument] otherwise. *)

val derive : key -> label:string -> string -> string
(** [derive k ~label input] is a 16-byte derived key. Distinct
    labels give independent keys for the same input. *)

val derive_int : key -> label:string -> int64 -> string
(** Convenience for 64-bit inputs such as numeric session IDs. *)

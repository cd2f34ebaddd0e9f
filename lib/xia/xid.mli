(** XIA identifiers.

    XIA "replaces the single address with a directed acyclic graph
    and uses the 'fallback' technology to support multi-protocol
    coexistence" (paper §1). The graph's nodes are XIDs: typed,
    self-certifying 160-bit identifiers. The types here are the four
    principal types of Han et al. (NSDI 2012). *)

type kind =
  | AD   (** autonomous domain *)
  | HID  (** host *)
  | SID  (** service *)
  | CID  (** content *)

type t = { kind : kind; id : string (* 20 bytes *) }

val v : kind -> string -> t
(** Raises [Invalid_argument] unless [id] is exactly 20 bytes. *)

val of_name : kind -> string -> t
(** Derive the 20-byte identifier from a human name (keyed hash) —
    self-certifying identifiers are hashes in XIA, and this gives
    tests and examples readable constructors. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val to_wire : t -> string
(** 21 bytes: kind tag + identifier. *)

val of_wire : string -> t
(** Raises [Invalid_argument] on bad length or unknown kind. *)

val read : Bytes.t -> int -> t
(** [read b pos] decodes the 21 wire bytes of [b] at [pos], as
    {!of_wire} does. Raises [Invalid_argument] on an unknown kind or
    if they are not all inside [b]. *)

val pp : Format.formatter -> t -> unit
(** e.g. [HID:1a2b3c4d…] (first 8 hex digits). *)

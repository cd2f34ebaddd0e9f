(** IPv4 and IPv6 addresses and prefixes.

    These are the address formats behind the paper's
    {i F_32_match} / {i F_128_match} operations (Table 1, keys 1–2):
    32-bit and 128-bit destination matching against a
    longest-prefix-match table. *)

module V4 : sig
  type t = int32
  (** A 32-bit address in host order semantics (bit 0 = MSB). *)

  val of_string : string -> t
  (** Parse dotted-quad ["a.b.c.d"]. Raises [Invalid_argument] on
      malformed input. *)

  val to_string : t -> string
  val of_octets : int -> int -> int -> int -> t
  val to_wire : t -> string
  (** 4 big-endian bytes. *)

  val of_wire : string -> t
  (** Inverse of {!to_wire}; requires exactly 4 bytes. *)

  val bit : t -> int -> bool
  (** [bit a i] is bit [i], MSB first ([i] in [\[0,32)]). *)
end

module V6 : sig
  type t = int64 * int64
  (** A 128-bit address as [(hi, lo)]. *)

  val of_string : string -> t
  (** Parse full (non-abbreviated) colon-hex
      ["xxxx:xxxx:...:xxxx"] (8 groups) or the abbreviated ["::"]
      forms with one elision. Raises [Invalid_argument] on malformed
      input. *)

  val to_string : t -> string
  (** Full 8-group lowercase colon-hex (no elision). *)

  val to_wire : t -> string
  (** 16 big-endian bytes. *)

  val of_wire : string -> t
  val bit : t -> int -> bool
  val compare : t -> t -> int
end

(** A CIDR prefix over either family. *)
module Prefix : sig
  type addr = V4 of V4.t | V6 of V6.t

  type t = private { addr : addr; len : int }

  val of_string : string -> t
  (** Parse ["10.0.0.0/8"] or ["2001:db8::/32"]. *)

  val to_string : t -> string
  val matches : t -> addr -> bool
  (** Whether an address falls inside the prefix (same family and
      shared high bits). *)
end

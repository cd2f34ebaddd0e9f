(** Bit-granular packet buffers.

    DIP Field Operations address header state as [(bit offset, bit
    length)] slices of a shared "FN locations" region (paper §2.2),
    so the substrate must support reads and writes at arbitrary bit
    positions. Bits are numbered MSB-first within each byte — bit 0
    is the most significant bit of byte 0 — matching network wire
    order.

    All accessors raise [Invalid_argument] on out-of-bounds access;
    a router must never silently read past a packet. *)

type t

val create : int -> t
(** [create n] is an [n]-byte buffer of zeros. *)

val of_string : string -> t
(** Copy a string into a fresh buffer. *)

val to_bytes : t -> bytes
(** The underlying storage (no copy). *)

val to_string : t -> string
(** Copy out as a string. *)

val sub_string : t -> pos:int -> len:int -> string
(** [sub_string t ~pos ~len] copies out only the [len] bytes starting
    at byte [pos] — the bounded read the hot path uses instead of
    stringifying a whole packet. *)

val sub_bytes : t -> pos:int -> len:int -> bytes
(** Like {!sub_string} but returns fresh mutable bytes. *)

val length : t -> int
(** Length in bytes. *)

val copy : t -> t
(** Deep copy. *)

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** Byte-level blit ([len] bytes). *)

(** {1 Fixed-width integer fields}

    Big-endian (network order) semantics: the first bit of the field
    is the most significant bit of the value. *)

val get_uint : t -> Field.t -> int64
(** [get_uint t f] reads a field of at most 64 bits. Raises
    [Invalid_argument] if [f.len_bits > 64] or out of bounds. *)

val set_uint : t -> Field.t -> int64 -> unit
(** [set_uint t f v] writes the low [f.len_bits] bits of [v]. Bits of
    [v] above the field width must be zero, else [Invalid_argument] —
    a silent truncation in a router is a bug. *)

val get_uint8 : t -> int -> int
val set_uint8 : t -> int -> int -> unit
val get_uint16 : t -> int -> int
val set_uint16 : t -> int -> int -> unit
val get_uint32 : t -> int -> int32
val set_uint32 : t -> int -> int32 -> unit
(** Byte-offset big-endian accessors for the common aligned cases. *)

(** {1 Arbitrary-width fields}

    Fields wider than 64 bits (e.g. OPT's 128-bit tags, 544-bit
    verification span) are handled as strings: the field value is
    returned as [ceil(len_bits / 8)] bytes, MSB-aligned (the final
    byte is padded with low zero bits when the width is not a
    multiple of 8). *)

val get_field : t -> Field.t -> string
val set_field : t -> Field.t -> string -> unit
(** [set_field t f v] requires [String.length v = ceil(f.len_bits/8)]
    and, for unaligned widths, zero padding bits. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** Hex dump. *)

(** The DIP packet header — Figure 1 of the paper.

    {v
    +------------------------------------------------------+
    | basic header (6 bytes)                               |
    |   next header (8) | FN number (8) | hop limit (8)    |
    |   packet parameter (16) | reserved (8)               |
    +------------------------------------------------------+
    | FN definitions: FN number × 6-byte triples           |
    +------------------------------------------------------+
    | FN locations: FN_LocLen bytes                        |
    +------------------------------------------------------+
    | payload                                              |
    +------------------------------------------------------+
    v}

    The 16-bit packet parameter packs, per §2.2: the lowest bit is
    the {e parallel} flag ("whether the operation modules can be
    executed in parallel"), the higher ten bits are the FN-locations
    length (in bytes), and the remaining five bits are reserved.

    "Since the triplet structure of an FN is fixed, we can use the FN
    number and the FN locations length to derive the DIP header
    length" (§2.2) — see {!header_length}. *)

type t = {
  next_header : int;  (** 8-bit, identifies the payload protocol *)
  fn_num : int;  (** number of FN triples *)
  hop_limit : int;
  parallel : bool;  (** packet-parameter bit 0 *)
  fn_loc_len : int;  (** FN-locations length in bytes (10 bits) *)
}

val basic_size : int
(** 6 bytes — the Table 2 "basic DIP header" figure. *)

val max_fn_loc_len : int
(** 1023: the 10-bit packet-parameter limit. *)

val header_length : t -> int
(** [basic_size + fn_num·6 + fn_loc_len] — the derivation of §2.2,
    and the quantity Table 2 reports per protocol. *)

val fn_offset : int -> int
(** Byte offset of the i-th FN triple (0-based). *)

val locations_offset : t -> int
(** Byte offset of the FN-locations region. *)

val payload_offset : t -> int
(** Byte offset of the payload; equals {!header_length}. *)

val encode : t -> Dip_bitbuf.Bitbuf.t -> unit
(** Write the basic header at offset 0. *)

val wire_fn_num : Dip_bitbuf.Bitbuf.t -> int
val wire_fn_loc_len : Dip_bitbuf.Bitbuf.t -> int

val wire_locations_offset : Dip_bitbuf.Bitbuf.t -> int
(** [fn_num], [fn_loc_len] and {!locations_offset} of the basic
    header at offset 0, read where they lie; the buffer must hold the
    6-byte basic header. *)

val announced_length : Dip_bitbuf.Bitbuf.t -> int
(** The {!header_length} the basic header at offset 0 announces,
    read straight off the wire without building a header; the buffer
    must hold the 6-byte basic header. *)

val decode : Dip_bitbuf.Bitbuf.t -> (t, string) result
(** Parse and bounds-check a basic header ("parse basic DIP header",
    Algorithm 1 line 1). *)

val decrement_hop_limit : Dip_bitbuf.Bitbuf.t -> bool
(** In-place; [false] when the packet must be dropped instead. *)

val pp : Format.formatter -> t -> unit

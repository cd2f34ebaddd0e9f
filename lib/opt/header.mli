(** The OPT header region: layout and field accessors.

    The layout is fixed by the FN triples the paper uses to realize
    OPT (§3): {i F_parm} at (loc 128, len 128), {i F_MAC} over
    (loc 0, len 416), {i F_mark} at (loc 288, len 128) and
    {i F_ver} over (loc 0, len 544). Solving those constraints gives

    {v
    bits [  0,128)  data hash
    bits [128,256)  session id (128-bit field; low 64 bits used)
    bits [256,288)  timestamp (32-bit)
    bits [288,416)  PVF — path verification field
    bits [416,544)  OPV 1 — per-hop verification tag
    bits [544,...)  OPV 2.. for longer paths (128 bits per hop)
    v}

    "The header length of OPT varies with the path length and we use
    one hop for evaluation" (§4.1): with [hops = 1] the region is
    exactly 544 bits = 68 bytes, which makes the paper's Table 2 OPT
    row (6 + 24 + 68 = 98 bytes) come out exactly.

    All accessors address an OPT region that starts [base] {e bytes}
    into a {!Dip_bitbuf.Bitbuf.t}, so the same code serves the native
    packet format and the DIP FN-locations region. *)

val size_bytes : hops:int -> int
(** 68 + 16·(hops-1). [hops >= 1]. *)

val size_bits : hops:int -> int

(** Field descriptors relative to the start of the region. *)
val session_id_field : Dip_bitbuf.Field.t
val pvf_field : Dip_bitbuf.Field.t
val opv_field : int -> Dip_bitbuf.Field.t
(** [opv_field i] is the i-th hop's OPV, [i >= 1]. *)

val mac_span_field : Dip_bitbuf.Field.t
(** Bits [0,416) — what {i F_MAC} reads (key 7 triple). *)

val ver_span_field : hops:int -> Dip_bitbuf.Field.t
(** Bits [0, 416 + 128·hops) — what {i F_ver} checks (544 bits at
    one hop, key 9 triple). *)

(** Accessors at a byte offset [base] within a buffer. *)

val get_data_hash : Dip_bitbuf.Bitbuf.t -> base:int -> string
val set_data_hash : Dip_bitbuf.Bitbuf.t -> base:int -> string -> unit
val get_session_id : Dip_bitbuf.Bitbuf.t -> base:int -> int64
val set_session_id : Dip_bitbuf.Bitbuf.t -> base:int -> int64 -> unit
val get_timestamp : Dip_bitbuf.Bitbuf.t -> base:int -> int32
val set_timestamp : Dip_bitbuf.Bitbuf.t -> base:int -> int32 -> unit
val get_pvf : Dip_bitbuf.Bitbuf.t -> base:int -> string
val set_pvf : Dip_bitbuf.Bitbuf.t -> base:int -> string -> unit
val get_opv : Dip_bitbuf.Bitbuf.t -> base:int -> int -> string
val set_opv : Dip_bitbuf.Bitbuf.t -> base:int -> int -> string -> unit

(** The EPIC header region.

    EPIC — "Every Packet Is Checked in the Data Plane of a Path-Aware
    Internet" (Legner et al., USENIX Security 2020) — is the second
    source/path-validation protocol the paper names next to OPT (§1):
    both "require on-path routers to verify and update the
    cryptographically generated code carried in customized packet
    headers". Where OPT validates at the destination, EPIC routers
    {e check} a per-hop validation field (HVF) before forwarding and
    drop on mismatch.

    Region layout, [base] bytes into a packet buffer:

    {v
    bits [  0, 32)  source id
    bits [ 32, 64)  packet timestamp
    bits [ 64,192)  payload hash (128)
    bits [192,...)  HVF_1, HVF_2, … (32 bits per hop)
    v} *)

val size_bytes : hops:int -> int
(** 24 + 4·hops. *)

val size_bits : hops:int -> int

val set_src : Dip_bitbuf.Bitbuf.t -> base:int -> int32 -> unit
val get_timestamp : Dip_bitbuf.Bitbuf.t -> base:int -> int32
val set_timestamp : Dip_bitbuf.Bitbuf.t -> base:int -> int32 -> unit
val get_payload_hash : Dip_bitbuf.Bitbuf.t -> base:int -> string
val set_payload_hash : Dip_bitbuf.Bitbuf.t -> base:int -> string -> unit

val get_hvf : Dip_bitbuf.Bitbuf.t -> base:int -> int -> int32
val set_hvf : Dip_bitbuf.Bitbuf.t -> base:int -> int -> int32 -> unit
(** 1-based hop index. *)

(** CRC-32 (IEEE 802.3 polynomial, reflected). Used for payload
    integrity checks in the simulator and for cheap content-name
    hashing where cryptographic strength is not needed. *)

val digest : ?init:int32 -> string -> int32
(** [digest s] is the CRC-32 of [s]. [init] allows incremental use by
    feeding a previous digest back in. *)

val digest_bytes : ?init:int32 -> bytes -> int32
(** As {!digest} on [bytes]. *)

val digest_sub : ?init:int32 -> bytes -> pos:int -> len:int -> int32
(** CRC of a slice, without copying. Raises [Invalid_argument] on an
    out-of-bounds slice. *)

val digest_sub_int : init:int -> bytes -> pos:int -> len:int -> int
(** As {!digest_sub}, with the digests as [int]s in [\[0, 2^32)] (the
    [int32]'s bits, unsigned): no [int32] is boxed, so a digest over
    several slices of a buffer allocates nothing. [init] is [0] for a
    fresh digest. *)

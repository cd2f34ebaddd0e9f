(** A field is a contiguous run of bits inside a packet region,
    identified by a bit offset and a bit length — exactly the
    [(field_location, field_length)] half of a DIP Field Operation
    triple (paper §2.1). *)

type t = private { off_bits : int; len_bits : int }

val v : off_bits:int -> len_bits:int -> t
(** [v ~off_bits ~len_bits] validates and builds a field. Raises
    [Invalid_argument] if either component is negative or the length
    is zero. *)

val last_bit : t -> int
(** One past the highest bit touched, i.e. [off_bits + len_bits]. *)

val byte_span : t -> int * int
(** [(first_byte, byte_len)] of the smallest byte range covering the
    field. *)

val is_byte_aligned : t -> bool
(** True when both offset and length are multiples of 8; such fields
    take the fast byte-copy path. *)

val overlaps : t -> t -> bool
(** Whether two fields share at least one bit. The DIP engine uses
    this to decide if the header's parallel-execution flag (§2.2) is
    safe to honour. *)

val contains : t -> t -> bool
(** [contains outer inner] is true when every bit of [inner] lies in
    [outer]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Hexadecimal encoding helpers used by debug output, traces and
    tests. *)

val encode : string -> string
(** [encode s] is the lowercase hex rendering of [s], two characters
    per byte. *)

val decode : string -> string
(** [decode h] inverts {!encode}. Raises [Invalid_argument] if [h]
    has odd length or contains a non-hex character. *)

val dump : Format.formatter -> string -> unit
(** [dump fmt s] pretty-prints [s] as a classic 16-bytes-per-line hex
    dump with offsets and an ASCII gutter. *)

(** Plain-text table rendering. The benchmark harness uses this to
    print the paper's tables (Table 1, Table 2, Figure 2 series) in a
    stable, diffable format. *)

type align = Left | Right | Center

type t
(** A table under construction. *)

val create : ?aligns:align list -> string list -> t
(** [create headers] starts a table with the given column headers.
    [aligns] defaults to left alignment for every column. *)

val add_row : t -> string list -> unit
(** Append a row. Raises [Invalid_argument] if the arity differs from
    the header. *)

val render : t -> string
(** Render with box-drawing in ASCII ([+---+] style). *)

val print : t -> unit
(** [render] to stdout followed by a newline flush. *)

(** DIP packet construction and parsing.

    Hosts "formulate appropriate FNs in the packet header considering
    both the required network services and the supported FNs" (§2.3,
    Host Constructions): this module is that construction step, plus
    the parsed view routers work on. *)

type view = {
  header : Header.t;
  fns : Fn.t array;  (** parsed FN definitions, in order *)
  loc_base : int;  (** byte offset of the FN-locations region *)
  mutable buf : Dip_bitbuf.Bitbuf.t;
      (** the whole packet. Mutable for the engine alone: a compiled
          program keeps one view and points it at each packet it runs *)
}

val build :
  ?next_header:int ->
  ?hop_limit:int ->
  ?parallel:bool ->
  fns:Fn.t list ->
  locations:string ->
  payload:string ->
  unit ->
  Dip_bitbuf.Bitbuf.t
(** Assemble basic header + FN definitions + FN locations + payload.
    Raises [Invalid_argument] if an FN's target field falls outside
    the locations region, if there are more than 255 FNs, or if the
    locations region exceeds 10 bits of length. *)

val parse :
  ?known:(Dip_bitbuf.Bitbuf.t -> int -> Fn.t option) ->
  Dip_bitbuf.Bitbuf.t ->
  (view, string) result
(** Algorithm 1 lines 1–3: parse the basic header, the FN
    definitions according to FN_Num, and locate the FN locations
    according to FN_LocLen. Validates every FN's field bounds.

    [known buf pos], when given, is asked first for the FN triple at
    byte [pos] (the header's bounds are checked by then): a memo of
    earlier decodes, keyed by the triple's six bytes, that returns
    what {!Fn.decode} would. Its FNs are bounds-checked like any
    other. *)

val header_size : Dip_bitbuf.Bitbuf.t -> (int, string) result
(** Total DIP header length of an encoded packet — the quantity
    reported in Table 2. *)

val locations_field : view -> Fn.t -> Dip_bitbuf.Field.t
(** Translate an FN's locations-relative target field into an
    absolute bit field of the packet buffer (Algorithm 1 line 9:
    extract the target field from FN_Loc). *)

val get_target : view -> Fn.t -> string
(** Read an FN's target field bytes. *)

val payload : view -> string
(** Bytes after the DIP header. *)

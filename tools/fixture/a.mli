val length : 'a list -> int
(** No caller outside A: B's [length] is its own. *)

val f : ?opt:int -> int -> int
(** Called by B, never with [~opt]. *)

val g : unit -> int
(** Called by B only under [open A] and through an alias of A. *)

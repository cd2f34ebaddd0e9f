(** Diagnostics of the static FN-program verifier.

    A DIP packet is a tiny program over its FN-locations region
    (§2.2, Algorithm 1); the verifier in {!Dip_analysis} checks such
    a program without executing it and reports its findings here,
    each pinned to an FN index and a bit interval where possible. *)

(** [Error] means Algorithm 1 would misbehave on some node (abort,
    FN-unsupported, racy parallel execution); [Warning] flags a
    program that runs but almost certainly not as intended. *)
type severity = Error | Warning

(** The check classes of the verifier. *)
type check =
  | Parse  (** malformed basic header or FN definition list *)
  | Bounds  (** target slice outside the FN-locations region or the
                16-bit wire fields *)
  | Race  (** write-write / read-write overlap under the §2.2
              parallel flag *)
  | Dependency  (** scratch-mediated dataflow out of order (F_MAC or
                    F_mark before F_parm) *)
  | Key  (** unknown operation key, or one the given registry has
             not installed *)
  | Tag  (** host-tagged FN that silently disables its purpose on
             routers *)
  | Deployment  (** mandatory key missing on an on-path node (§2.4) *)
  | Loop
      (** reachability found a forwarding cycle no hop-limit-
          decrementing FN bounds — only the basic-header hop limit
          stops the packet *)
  | Blackhole
      (** reachability found a node with no route for the (known)
          match value: the packet dies short of [dst] *)
  | Sharding
      (** an FN may rewrite the field {!Dip_mcore.Flow} hashes on, so
          packets of one flow would hash to different mcore workers *)

type diag = {
  severity : severity;
  check : check;
  fn_index : int option;  (** 0-based index into the FN list *)
  field : Dip_bitbuf.Field.t option;
      (** offending bit interval, relative to the locations region *)
  message : string;
}

type t = {
  diags : diag list;
  fn_count : int;  (** FNs the program declares (decoded or not) *)
  depth : int;
      (** statically derived critical-path depth over declared
          access-mode hazards — what a modular-parallel dataplane
          pays with the §2.2 parallel bit set *)
  engine_depth : int;
      (** {!Dip_core.Engine.critical_path}'s conservative
          (overlap-only) estimate, for cross-checking against
          [Engine.info.parallel_depth] *)
}

val error : ?fn_index:int -> ?field:Dip_bitbuf.Field.t -> check -> string -> diag
val warning : ?fn_index:int -> ?field:Dip_bitbuf.Field.t -> check -> string -> diag

val errors : t -> int
val warnings : t -> int

val ok : t -> bool
(** No [Error]-severity diagnostics. *)

val clean : t -> bool
(** No diagnostics at all. *)

val first_error : t -> string option
(** The first [Error] diagnostic rendered as one line — what the
    engine's [~verify] hook reports in its [Dropped] reason. *)

val check_name : check -> string
val check_of_name : string -> check option
(** Inverse of {!check_name}; [None] for an unknown name. Used by the
    corpus runner, whose bad-program files are named
    [<check>--<name>.hex]. *)

val to_json : ?label:string -> t -> string
(** Machine-readable report ([dip lint --json]): one JSON object with
    [label], [fn_count], [depth], [engine_depth], [errors],
    [warnings] and a [diags] array. *)

val pp_diag : Format.formatter -> diag -> unit
val pp : Format.formatter -> t -> unit
(** Summary line followed by one indented line per diagnostic. *)

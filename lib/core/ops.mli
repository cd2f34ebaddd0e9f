(** The operation modules of Table 1 (plus {i F_pass}), implemented
    against {!Env} state.

    Each module is a {!Registry.impl} installed under its
    {!Opkey.t}; {!default_registry} is a node with every module
    pre-written on its dataplane (the §4.1 prototype configuration).
    Heterogeneous ASes (§2.4) install subsets via
    {!Registry.restrict}. *)

val compute_pass_label :
  Dip_crypto.Siphash.key ->
  locations:string ->
  label_field:Dip_bitbuf.Field.t ->
  int32
(** What a legitimate source writes into the label field: a keyed
    hash of the locations region with the label field zeroed. *)

val default_registry : unit -> Registry.t
(** All operation modules installed. *)

(** Abstract interpretation of FN programs over a per-bit-slice store.

    The declared transfer functions ({!Dip_core.Registry.transfer})
    are executed over an abstract store mapping disjoint bit slices
    of the FN-locations region to values: exact bytes ([Bytes], the
    slice still holds what the packet carried or a reconstructable
    constant) or abstract values ([Abs]) that remember {e how} and
    {e by which FNs} the slice may have been written. Scratch cells
    are tracked by name with their producer's FN index.

    This is the middle-end shared by the per-program checks in
    {!Dip_analysis} (dependency chains, parallel-ordering hazards,
    the Sharding check) and the topology-wide reachability pass in
    {!Reach}. *)

(** Abstract classification of a written slice, the lattice join of
    {!Dip_core.Registry.written_kind}: [K_top] when joins mix
    kinds. *)
type kind = K_step | K_node | K_data | K_top

val kind_of_written : Dip_core.Registry.written_kind -> kind
val join_kind : kind -> kind -> kind
val kind_name : kind -> string

type value =
  | Bytes of string
      (** exact MSB-aligned bytes of the slice
          ({!Dip_bitbuf.Bitbuf.get_field} convention) *)
  | Abs of kind * int list
      (** abstractly known: the kind of write and the sorted FN
          indices that may have produced it (empty for the initial
          unknown region) *)

val writers_of : value -> int list
val join_value : value -> value -> value

type store
(** Disjoint sorted slices covering the whole locations region. *)

val init : bits:int -> ?bytes:string -> unit -> store
(** A store of [bits] bits, initially one slice: exact [bytes] (the
    packet's locations region) when given, unknown otherwise. *)

val read : store -> Dip_bitbuf.Field.t -> value
(** The value of a slice, reassembling exact bytes across cell
    boundaries when possible. Out-of-region bits read as unknown. *)

val write : store -> Dip_bitbuf.Field.t -> value -> store
val writers_in : store -> Dip_bitbuf.Field.t -> int list
val join : store -> store -> store
val equal : store -> store -> bool

(** {1 Abstract execution} *)

(** The execution side: Algorithm 1 skips host-tagged FNs on routers
    and router-tagged FNs on hosts. *)
type side = Router | Host

val side_of_tag : Dip_core.Fn.tag -> side

type step = {
  st_index : int;  (** original program index *)
  st_fn : Dip_core.Fn.t;
  st_ran : bool;
      (** executed on this side: tag matches and (given a registry)
          the key is installed *)
  st_reads : Dip_bitbuf.Field.t list;  (** resolved read slices *)
  st_reads_region : bool;
  st_writes : (Dip_bitbuf.Field.t * Dip_core.Registry.written_kind) list;
  st_read_writers : int list;
      (** FN indices whose written slices this FN read — the true
          dependence edges, at any chain depth *)
  st_value : value option;
      (** the value of the target's first read slice at execution
          time — for a match FN, the value the forwarding decision
          keys on *)
  st_scratch_deps : (string * int) list;
      (** consumed scratch cells with their producer *)
  st_missing_scratch : string list;
      (** consumed scratch cells no earlier same-side FN produced *)
}

type exec_result = {
  steps : step list;
  store : store;
  scratch : (string * int) list;
}

val resolved :
  region_bits:int ->
  Dip_core.Fn.t ->
  Dip_bitbuf.Field.t list
  * (Dip_bitbuf.Field.t * Dip_core.Registry.written_kind) list
  * Dip_core.Registry.transfer
(** The FN's declared reads and writes resolved against its concrete
    target field and clipped to the region. *)

val scratch_step :
  (string, int) Hashtbl.t ->
  int ->
  Dip_core.Registry.transfer ->
  (string * int) list * string list
(** [scratch_step producers i tr] is the scratch bookkeeping of FN
    [i], with transfer [tr], executing on one side. [producers] maps
    each cell produced so far on that side to its latest producer.
    The result is the consumed cells that have a producer (paired
    with it) and those that have none, both in declaration order;
    then [i] becomes the producer of every cell it produces. {!exec}
    runs this on every step it executes, and the Dependency check
    runs it alone, without the store. *)

val exec :
  ?registry:Dip_core.Registry.t ->
  ?store:store ->
  ?bytes:string ->
  side:side ->
  region_bits:int ->
  (int * Dip_core.Fn.t) list ->
  exec_result
(** Run a program abstractly on one side. [store] (or else [bytes])
    seeds the region; FNs whose tag is for the other side, or whose
    key the given registry has not installed, are skipped exactly as
    Algorithm 1 skips them. *)

(** OPT source/router/destination operations.

    OPT provides {e source authentication} and {e path validation}:
    the source seeds a Path Verification Field (PVF), every on-path
    router folds its per-session key into the PVF and deposits an
    Origin and Path Verification tag (OPV), and the destination —
    holding the same session keys — replays the chain and compares
    (paper §3; Kim et al., SIGCOMM 2014).

    Concretely, with [mac k m] a 128-bit CBC-MAC:

    - source:   [pvf_0 = mac k_dst data_hash]
    - router i: [opv_i = mac k_i (bits 0..416)]  (data hash, session
                id, timestamp and the {e incoming} PVF), then
                [pvf_i = mac k_i pvf_(i-1)]
    - dest:     recompute both chains and compare all tags.

    The two router steps are exactly the paper's {i F_MAC} (key 7,
    span (0,416)) and {i F_mark} (key 8, span (288,128)) field
    operations, so the DIP realization reuses these functions
    verbatim. All operations work in place on a buffer region
    starting at byte [base], with the cipher selectable for the
    2EM-vs-AES ablation. A router step takes its key expanded
    ({!key}): F_parm expands the derived key once and both F_MAC and
    F_mark use that schedule; a router rewrites one schedule in place
    per packet ({!expand_into}). *)

type alg = EM2 | AES
(** MAC cipher choice; the prototype uses 2EM (§4.1). *)

type key
(** A session key with its cipher's key schedule expanded. *)

val expand : ?alg:alg -> Drkey.session_key -> key
(** Expand a 16-byte session key for [alg] (default 2EM). Raises
    [Invalid_argument] unless the key is 16 bytes. *)

val expand_into : Bytes.t -> key -> unit
(** [expand_into raw k] rewrites [k]'s schedule in place for the
    16-byte key [raw], keeping [k]'s cipher, and allocates nothing:
    F_parm's expansion. Raises [Invalid_argument] unless [raw] is 16
    bytes. *)

val hash_payload : string -> string
(** The 128-bit data hash bound into the tags. Implemented as a
    CBC-MAC under a fixed public key — same primitive the dataplane
    already has (a collision-resistant hash in the real deployment;
    the substitution is recorded in DESIGN.md). *)

val source_init :
  ?alg:alg ->
  Dip_bitbuf.Bitbuf.t ->
  base:int ->
  hops:int ->
  session_id:int64 ->
  timestamp:int32 ->
  dest_key:Drkey.session_key ->
  payload:string ->
  unit
(** Fill the OPT region: data hash, session id, timestamp, seed PVF;
    OPVs zeroed. *)

val router_update :
  ?alg:alg ->
  Dip_bitbuf.Bitbuf.t ->
  base:int ->
  hop:int ->
  key:Drkey.session_key ->
  unit
(** The hop-[hop] router's work (1-based): expand [key] once, write
    the OPV, then fold the PVF. *)

val mark_update : Dip_bitbuf.Bitbuf.t -> base:int -> key:key -> unit
(** Just the PVF fold ({i F_mark}), in place — exposed separately for
    the DIP engine. *)

val mac_update : Dip_bitbuf.Bitbuf.t -> base:int -> hop:int -> key:key -> unit
(** Just the OPV computation ({i F_MAC}): the MAC reads the 52-byte
    span from the buffer and writes the tag into OPV slot [hop]. *)

type failure =
  | Bad_data_hash
  | Bad_opv of int  (** 1-based hop whose OPV does not verify *)
  | Bad_pvf

val verify :
  ?alg:alg ->
  Dip_bitbuf.Bitbuf.t ->
  base:int ->
  hops:int ->
  session_keys:Drkey.session_key list ->
  dest_key:Drkey.session_key ->
  payload:string option ->
  (unit, failure) result
(** Destination check ({i F_ver}): recompute the PVF/OPV chains from
    [session_keys] (path order), expanding each key once, and compare
    every tag; optionally also re-hash the payload. First failure
    wins. *)

val pp_failure : Format.formatter -> failure -> unit

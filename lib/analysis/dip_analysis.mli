(** Static verification of FN programs.

    Every DIP packet carries a small {e program}: a list of FN
    triples [(field_loc, field_len, op_key)] indexing the shared
    FN-locations region (§2.2, Algorithm 1). This module checks such
    a program without executing it:

    - {b bounds} — every target slice fits the FN-locations region
      and the 16-bit wire fields;
    - {b overlap/race} — with the §2.2 parallel flag set, no two FNs
      may race on overlapping bits (classified write-write or
      read-write from the declared {!Dip_core.Registry.transfer}
      rows), and no scratch-mediated dependency may escape the
      engine's overlap-based serialization. Every report carries
      the hazard-aware critical-path depth next to
      {!Dip_core.Engine.critical_path}'s estimate, for
      cross-checking; {!verifier} computes neither;
    - {b dependency order} — scratch consumers (F_MAC, F_mark) must
      be preceded by a producer (F_parm) visible on the same
      execution side;
    - {b key/tag} — operation keys must be known and (given a
      registry) installed; mandatory keys that are missing would make
      the node answer FN-unsupported (§2.4); host-tagged forwarding
      FNs are flagged because routers silently skip them;
    - {b deployment} — given a topology and per-node registries,
      every {!Dip_core.Engine.mandatory} key must be installed on
      every on-path node (§2.4 heterogeneous deployment).

    The verifier is also available as an opt-in pre-check inside the
    engine ([Engine.process ~verify:(verifier ~registry ())], and
    likewise [Engine.handler]) so simulator runs fail fast on
    malformed programs. *)

module Report = Report
module Absint = Absint
module Reach = Reach

val depth : Dip_core.Fn.t list -> int
(** Hazard-aware critical-path length: FNs conflict when their
    target slices overlap with at least one writer, or when one
    produces the scratch value the other consumes. [0] for the empty
    program. *)

val analyze :
  ?registry:Dip_core.Registry.t ->
  ?parallel:bool ->
  loc_len:int ->
  Dip_core.Fn.t list ->
  Report.t
(** Check a decoded FN program against a locations region of
    [loc_len] bytes. [parallel] (default [false]) is the §2.2 header
    flag; race diagnostics only apply when it is set, because
    Algorithm 1's sequential order is otherwise authoritative.
    Without [registry] the installed-key checks are skipped. *)

val analyze_view :
  ?registry:Dip_core.Registry.t -> Dip_core.Packet.view -> Report.t
(** {!analyze} on a parsed packet, taking the locations length and
    parallel flag from its header. *)

val analyze_packet :
  ?registry:Dip_core.Registry.t -> Dip_bitbuf.Bitbuf.t -> Report.t
(** Lenient whole-packet analysis: unlike {!Dip_core.Packet.parse},
    a malformed FN definition (unknown key, zero-length field)
    becomes a diagnostic rather than aborting, and the remaining FNs
    are still checked. A malformed basic header yields a single
    [Parse] error. *)

val check_deployment :
  topology:Dip_netsim.Topology.t ->
  registry_at:(int -> Dip_core.Registry.t) ->
  src:int ->
  dst:int ->
  Dip_core.Fn.t list ->
  Report.diag list
(** §2.4 heterogeneous-deployment check: walk the shortest path
    [src → dst] and report every {!Dip_core.Engine.mandatory} key of
    the program that some on-path node has not installed — such a
    node would answer FN-unsupported instead of forwarding.
    Router-tagged keys are required on the intermediate nodes,
    host-tagged ones on [dst]. An unreachable [dst] is itself a
    deployment error. *)

val flow_field : Dip_core.Fn.t list -> Dip_bitbuf.Field.t option
(** The region-relative target field of the first forwarding FN —
    the slice {!Dip_mcore.Flow} hashes for worker sharding and the
    Sharding check protects. Alias of {!Reach.match_field}. *)

val verifier :
  ?registry:Dip_core.Registry.t ->
  unit ->
  Dip_core.Packet.view ->
  (unit, string) result
(** The static checker in the shape of the engine's [?verify] hook:
    [Ok ()] when {!analyze_view} finds no [Error] diagnostics,
    otherwise its first error rendered as one line (the string
    {!Report.first_error} gives).

    It runs on every program-cache miss, so it computes only the
    verdict. It runs the report's passes in the report's order and
    stops at the first pass with an [Error]. It skips what can only
    warn: ordering hazards without the parallel flag, the tag check
    and the warnings for missing ignorable keys. It computes no
    depth. A [Warning] never changes the verdict, and the passes
    are ordered as in the report, so the verdict and the reason are
    those of the full {!analyze_view}.

    The engine memoizes verdicts per cached program keyed on the
    hook's physical identity, so build the hook once and reuse it
    rather than making a closure per packet. *)

val registry_gate :
  programs:Dip_bitbuf.Bitbuf.t list ->
  Dip_core.Registry.t ->
  (unit, string) result
(** Publish-time analysis gate for {!Dip_mcore.Snapshot.check}: every
    program must pass {!analyze_packet} against the candidate
    registry with no [Error] (including the Sharding class), or the
    first failure is reported and the snapshot must not be
    published. *)

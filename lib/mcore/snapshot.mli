(** Immutable configuration snapshots for the parallel data plane.

    Worker domains never take a lock to read configuration: a
    {!Pool} holds one [Atomic.t] pointer to the {e current} snapshot,
    workers dereference it at batch start, and the control plane
    replaces the whole pointer ({!Pool.publish}) instead of mutating
    anything in place. A snapshot must therefore be treated as
    immutable once published — build a new one ({!next}) for every
    configuration change, RCU-style.

    Because {!Dip_core.Env.t} is deeply mutable (PIT, routes, OPT
    secrets), a snapshot does not carry environments; it carries a
    {e factory} [mk_env] from which the pool builds one private
    environment per worker. Flow-hash sharding ({!Flow}) guarantees
    each flow only ever sees one worker's environment, so per-flow
    state stays coherent without sharing. *)

type t = {
  epoch : int;  (** Monotone publication counter. *)
  registry : Dip_core.Registry.t;
      (** Installed operation modules. Treat as frozen: enabling or
          disabling an op means publishing a new snapshot. *)
  mk_env : int -> Dip_core.Env.t;
      (** [mk_env w] builds worker [w]'s private environment —
          identical configuration, disjoint mutable state. *)
  verify : (Dip_core.Packet.view -> (unit, string) result) option;
      (** Static program verifier, e.g. [Dip_analysis.verifier]. *)
  check : (Dip_core.Registry.t -> (unit, string) result) option;
      (** Publish-time configuration gate, e.g.
          [Dip_analysis.registry_gate ~programs]: run against
          {!registry} before the epoch swap, so an unsound
          configuration (one whose programs would break flow-hash
          sharding, race, or dead-end) is rejected before any worker
          can observe it. *)
}

val v :
  ?verify:(Dip_core.Packet.view -> (unit, string) result) ->
  ?check:(Dip_core.Registry.t -> (unit, string) result) ->
  registry:Dip_core.Registry.t ->
  mk_env:(int -> Dip_core.Env.t) ->
  unit ->
  t
(** A fresh epoch-0 snapshot. *)

val next :
  ?check:(Dip_core.Registry.t -> (unit, string) result) ->
  ?mk_env:(int -> Dip_core.Env.t) ->
  t ->
  t
(** [next t] is [t] with the given fields replaced and the epoch
    bumped — the value to hand to {!Pool.publish}. It keeps [t]'s
    registry and clears [verify]; an omitted [check] is inherited — a
    publish-time gate stays mandatory across epochs unless explicitly
    replaced. *)

val validate : t -> (unit, string) result
(** Run the snapshot's {!check} (if any) against its registry. *)

val publish : t -> via:(t -> unit) -> (unit, string) result
(** [publish t ~via] validates and only then hands [t] to [via] (the
    actual pointer swap, e.g. {!Pool.publish}'s internals). The gate
    is not advisory: a failing {!check} means [via] is never called
    and the configuration never reaches an epoch swap. *)

(** Measurement collection: the named-counter view.

    Counting happens through pre-registered {!Dip_obs.Metrics}
    handles; {!Counters} is the read side of such a registry.
    Distributions are {!Dip_obs.Metrics.histogram}s. *)

(** A read-only view of the counters in a {!Dip_obs.Metrics}
    registry — {!Sim.counters}, [Dip_core.Env.t]'s [counters]. Writers
    register a handle once, at setup, and count through it. *)
module Counters : sig
  type t = Dip_obs.Metrics.t

  val get : t -> string -> int
  (** [0] for a name never registered. *)

  val to_list : t -> (string * int) list
  (** Every counter written so far, sorted by name; a handle
      registered but never written is not listed. *)
end

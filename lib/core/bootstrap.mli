(** FN discovery and propagation.

    §2.3: "After the host is connected to an accessed AS, it uses
    bootstrapping mechanisms (similar to DHCP) to get the set of
    available FNs … One readily deployable mechanism to globally
    propagate supported FNs among ASes is relying on BGP
    communities."

    This module models both halves: {!local_offer} is the DHCP-like
    answer of the access AS, and {!path_supported} is what
    BGP-community propagation lets the host learn about a whole
    path — for operations that need every on-path AS (OPT), the
    usable set is the intersection of the per-AS sets along the
    route. *)

type t

val create : unit -> t

val add_as : t -> int -> Opkey.t list -> unit
(** Register an AS and the operation keys its dataplanes support.
    Re-adding replaces the support set. *)

val link : t -> int -> int -> unit
(** Provider/peer adjacency between two registered ASes. *)

val local_offer : t -> int -> Opkey.t list
(** What a host attached to this AS learns at bootstrap (the DHCP
    analogue): the access AS's support set. *)

val path_supported : t -> src:int -> dst:int -> Opkey.t list option
(** The FN keys supported by {e every} AS on a shortest path from
    [src] to [dst]; [None] when unreachable. This is the set a host
    may safely use for all-path operations. *)

val plan :
  required:Opkey.t list -> offered:Opkey.t list -> (unit, Opkey.t list) result
(** Host construction check (§2.3): all [required] keys available?
    [Error missing] lists what is not. *)

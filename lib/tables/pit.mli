(** The NDN pending interest table.

    {i F_PIT} (key 5): when an interest is forwarded, the router
    "records its receiving port in the PIT"; when matching data
    arrives, it is forwarded "to the recorded request port (match
    hit) or the packet is discarded (match miss)" (paper §3).

    Entries aggregate: a second interest for the same name from a
    different port joins the existing entry instead of being
    re-forwarded. Entries expire after their interest lifetime and a
    capacity bound protects router state — one of the §2.4 security
    requirements (bounded per-packet state consumption).

    The table is keyed by the 32-bit hashed name as an unsigned
    [int], read off the packet ({!insert_int}, {!consume_int}); the
    [int32] functions are wrappers over them. Its entries sit in the
    slots of a {!Slots} index, so a probe, a new entry for a port
    below 256 and the consumption of a one-port entry allocate
    nothing. *)

type port = int

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds live entries (default 65536). A full table
    reclaims its expired entries before it rejects an insert. Slots
    are allocated as entries arrive, not up to [capacity]. *)

val size : t -> int

val singleton : port -> port list
(** [[p]], shared for ports below 256 instead of allocated: an
    entry's first port, and the one-port routes of {!Dip_core.Ops}. *)

type outcome =
  | Forwarded  (** new entry created; the interest should go upstream *)
  | Aggregated (** joined an existing entry; do not re-forward *)
  | Rejected   (** table full; drop the interest *)

val insert_int : t -> key:int -> port:port -> now:float -> lifetime:float -> outcome
(** Record a pending interest arriving on [port]. *)

val consume_int : t -> key:int -> now:float -> port list
(** Data arrived: return the request ports in arrival order and drop
    the entry. Expired entries are treated as absent. The empty list
    is the "match miss → discard" case. *)

val insert : t -> key:int32 -> port:port -> now:float -> lifetime:float -> outcome
val consume : t -> key:int32 -> now:float -> port list

val pending : t -> key:int32 -> now:float -> port list
(** Inspect without consuming. *)

val purge_expired : t -> now:float -> int
(** Evict all expired entries; returns how many were dropped. *)

type event =
  | Expire  (** an expired entry was dropped, found on a probe or swept *)
  | Reject  (** an insert was refused: the table is full of live entries *)

val set_observer : t -> (event -> unit) -> unit
(** Called on each event, which are rare: the hook {!Dip_core.Env}
    counts ["pit.expired"] and ["pit.rejected"] through. *)

(** The NDN pending interest table.

    {i F_PIT} (key 5): when an interest is forwarded, the router
    "records its receiving port in the PIT"; when matching data
    arrives, it is forwarded "to the recorded request port (match
    hit) or the packet is discarded (match miss)" (paper §3).

    Entries aggregate: a second interest for the same name from a
    different port joins the existing entry instead of being
    re-forwarded. Entries expire after their interest lifetime and a
    capacity bound protects router state — one of the §2.4 security
    requirements (bounded per-packet state consumption). *)

type port = int

type 'k t

val create : ?capacity:int -> unit -> 'k t
(** [capacity] bounds live entries (default 65536). A full table
    reclaims its expired entries before it rejects an insert. *)

val size : 'k t -> int

type outcome =
  | Forwarded  (** new entry created; the interest should go upstream *)
  | Aggregated (** joined an existing entry; do not re-forward *)
  | Rejected   (** table full; drop the interest *)

val insert : 'k t -> key:'k -> port:port -> now:float -> lifetime:float -> outcome
(** Record a pending interest arriving on [port]. *)

val consume : 'k t -> key:'k -> now:float -> port list
(** Data arrived: return the request ports and drop the entry.
    Expired entries are treated as absent. The empty list is the
    "match miss → discard" case. *)

val pending : 'k t -> key:'k -> now:float -> port list
(** Inspect without consuming. *)

val purge_expired : 'k t -> now:float -> int
(** Evict all expired entries; returns how many were dropped. *)

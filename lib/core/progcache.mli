(** Decoded-FN-program cache: the engine's hot-path fast path.

    Every DIP packet of one realization carries a byte-identical
    program prefix — the basic header (minus the hop limit, which
    decrements per hop) plus the FN-definition triples. P4-style
    pipelines get their speed by compiling the protocol program once
    and streaming packets through it (§4.1 pre-written operation
    modules); this cache is the software-dataplane analogue: the
    first packet of a program pays the full parse (and, when the
    engine runs with a [?verify] pre-check, the full static
    analysis), every later packet reuses the decoded [Fn.t array],
    the memoized verification verdict and the memoized critical-path
    depth.

    One cache per {!Env} (routers differ in registry, so verdicts
    must not be shared across nodes). Control-plane FN
    install/upgrade ({!Control}) invalidates the affected entries;
    mutating a registry behind the engine's back without going
    through [Control] requires an explicit {!clear}. *)

type entry = {
  header : Header.t;  (** as parsed, with [hop_limit] forced to 0 *)
  header_len : int;  (** total header length — hit-time bounds check *)
  fns : Fn.t array;
  loc_base : int;
  mutable depth : int;
      (** memoized {!Engine.critical_path} over the full program;
          [-1] until the engine first needs it *)
  mutable verdict :
    ((Packet.view -> (unit, string) result) * (unit, string) result) option;
      (** memoized result of the engine's [?verify] pre-check,
          tagged with the hook that produced it (compared physically
          by {!Engine.check_view}): a different verifier re-checks
          instead of inheriting another hook's verdict *)
}

type t

val create : ?capacity:int -> unit -> t
(** LRU-bounded cache of at most [capacity] (default 512) distinct
    programs. [capacity = 0] creates a disabled cache. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit
(** The [--no-program-cache] escape hatch: a disabled cache makes
    {!Engine} fall back to cold parsing. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
(** Programs displaced by LRU pressure (capacity overflow). A high
    evict rate means the working set of distinct programs exceeds
    the cache — the signal the observability layer watches. *)

val size : t -> int
val capacity : t -> int

val set_flight : t -> Dip_obs.Flight.ring option -> unit
(** Arm (or disarm) a flight-recorder ring: cache events are recorded
    as ["progcache.hit"] (sampled 1-in-16, a0 = running hit total),
    ["progcache.miss"] and ["progcache.evict"] instants (every one,
    a0 = running total). The ring must belong to the domain whose
    engine owns this cache. *)

val flight : t -> Dip_obs.Flight.ring option

val key_of : Dip_bitbuf.Bitbuf.t -> string option
(** The raw basic-header + FN-definition prefix with the hop-limit
    byte zeroed; [None] when the buffer is shorter than the prefix it
    announces. Exposed for tests. *)

val parse : t -> Dip_bitbuf.Bitbuf.t -> (Packet.view * entry option, string) result
(** {!Packet.parse} through the cache. On a hit the returned view
    shares the cached FN array and header (with the packet's actual
    hop limit patched in); on a miss the cold parse result is
    inserted. The entry is [None] only when the packet is too
    malformed to be keyed. Cached parse and cold parse agree on every
    packet, including errors.

    A run of same-program packets (the steady state of a forwarding
    router) is served by an inline single-entry hint: a byte
    comparison against the last program's prefix, no allocation, no
    LRU probe. The hint is dropped on {!clear}, {!invalidate_key} and
    eviction, so it never outlives the entry it points to. *)

type hint
(** A one-entry parse memo: the last program prefix parsed through it.
    Every cache carries one inline hint, which {!parse} uses; an
    external hint is only for a caller that wants its own run state.
    Cache invalidation ({!clear}, {!invalidate_key}, {!Control}
    updates) drops the inline hint but cannot reach external ones, so
    an external hint must not outlive the batch it was created for. *)

val hint : unit -> hint

val parse_hinted :
  t -> hint -> Dip_bitbuf.Bitbuf.t -> (Packet.view * entry option, string) result
(** {!parse} through [hint] instead of the inline hint: when the
    packet's prefix matches the hint's remembered program (hop-limit
    byte ignored), the cached entry is reused without touching the
    LRU; otherwise the LRU is probed and the hint re-armed. Hit/miss
    accounting is identical to {!parse}. *)

val clear : t -> unit
(** Drop every entry (registry changed outside {!Control}). *)

val invalidate_key : t -> Opkey.t -> int
(** Drop the entries whose program uses the given operation key —
    the {!Control} FN install/upgrade hook. Returns how many entries
    were dropped. *)

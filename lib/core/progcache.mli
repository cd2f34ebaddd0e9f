(** Decoded-FN-program cache: the engine's hot-path fast path.

    Every DIP packet of one realization carries a byte-identical
    program prefix — the basic header (minus the hop limit, which
    decrements per hop) plus the FN-definition triples. P4-style
    pipelines get their speed by compiling the protocol program once
    and streaming packets through it (§4.1 pre-written operation
    modules); this cache is the software-dataplane analogue: the
    first packet of a program pays the full parse, and the entry then
    carries the program {!Engine} compiled from it (resolved
    operation modules, absolute target slices, skip decisions and the
    memoized [?verify] verdict), so every later packet runs that.

    The table is a fixed set of slots in int arrays: a hash chain and
    an LRU list through slot indices, a fingerprint and a key
    comparison computed on the packet's own bytes, so a probe that
    hits allocates nothing. The key string is made only on a miss.
    The arrays start small and double up to the capacity. Entries
    share their FN definitions through a small per-cache table; a
    miss's {!Packet.parse} takes the FN triples the table already
    holds instead of decoding them.

    Entries whose prefixes differ only in the next-header byte carry
    one FN program, and share one program: it is compiled and verified
    once, and lives while one of them is cached. A miss whose FN
    program is cached under another next header is not parsed: its
    view takes that entry's FN array. So a cache of [capacity]
    entries holds at most [capacity] programs.

    One cache per {!Env} (routers differ in registry, so compiled
    programs must not be shared across nodes). Control-plane FN
    install/upgrade ({!Control}) invalidates the affected entries; a
    direct {!Registry} change is seen by the engine itself, which
    recompiles a program whose registry moved since it was
    compiled. *)

type program = ..
(** What {!Engine} stores in an entry: its compiled program. *)

type program += Uncompiled  (** a fresh FN program, not yet run *)

type entry = {
  view : Packet.view;
      (** the program as parsed, with [hop_limit] forced to 0; the
          engine points [buf] at each packet it runs and back at an
          empty buffer after *)
  mutable program : program;
      (** on insert, the program of the last entry of its FN program
          that was inserted, if one is cached, else [Uncompiled] *)
}

type t

val create : ?capacity:int -> unit -> t
(** LRU-bounded cache of at most [capacity] (default 512) distinct
    program prefixes. [capacity = 0] creates a disabled cache. *)

val enabled : t -> bool
(** [false] for a cache created with [capacity = 0]: {!Engine} then
    parses every packet cold. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
(** Programs displaced by LRU pressure (capacity overflow). A high
    evict rate means the working set of distinct programs exceeds
    the cache — the signal the observability layer watches. *)

(** The cache's three totals. *)
type stat = Hit | Miss | Evict

val stat_name : stat -> string
(** ["progcache.hit"] / ["progcache.miss"] / ["progcache.evict"]: the
    one name of each total, under which {!set_flight}'s ring records
    its events and {!Env.publish_cache_stats} its counter. *)

val size : t -> int
val set_flight : t -> Dip_obs.Flight.ring option -> unit
(** Arm (or disarm) a flight-recorder ring: cache events are recorded
    as ["progcache.hit"] (sampled 1-in-16, a0 = running hit total),
    ["progcache.miss"] and ["progcache.evict"] instants (every one,
    a0 = running total). The ring must belong to the domain whose
    engine owns this cache. *)

val key_of : Dip_bitbuf.Bitbuf.t -> string option
(** The raw basic-header + FN-definition prefix with the hop-limit
    byte zeroed; [None] when the buffer is shorter than the prefix it
    announces. Exposed for tests. *)

val absent : entry
(** The entry {!probe} returns for a packet the cache cannot serve;
    compare with [==]. *)

val probe : t -> Dip_bitbuf.Bitbuf.t -> entry
(** The engine's lookup: the entry of the packet's program, inserted
    (and counted as a miss) when new. A run of same-program packets
    (the steady state of a forwarding router) is served by an inline
    single-entry hint: a byte comparison against the last program's
    prefix, no hashing, no LRU update. The hint is dropped on
    {!clear}, {!invalidate_key} and eviction, so it never outlives
    the entry it points to.

    Returns {!absent}, counting nothing, when the packet is too short
    to hold the prefix it announces, too short for the header a
    cached prefix announces, or new and unparsable: in each case
    {!Packet.parse} of the packet fails. *)

val parse : t -> Dip_bitbuf.Bitbuf.t -> (Packet.view * entry option, string) result
(** {!Packet.parse} through {!probe}. On a hit the returned view
    shares the cached FN array (with the packet's actual hop limit in
    a fresh header). The entry is [None] only when the packet is too
    malformed to be keyed. Cached parse and cold parse agree on every
    packet, including errors. *)

type hint
(** A one-entry parse memo: the last program parsed through it.
    Every cache carries one inline hint, which {!probe} and {!parse}
    use; an external hint is only for a caller that wants its own run
    state. Cache invalidation ({!clear}, {!invalidate_key}, {!Control}
    updates) drops the inline hint but cannot reach external ones, so
    an external hint must not outlive the batch it was created for. *)

val hint : unit -> hint

val parse_hinted :
  t -> hint -> Dip_bitbuf.Bitbuf.t -> (Packet.view * entry option, string) result
(** {!parse} through [hint] instead of the inline hint: when the
    packet's prefix matches the hint's remembered program (hop-limit
    byte ignored), the cached entry is reused without touching the
    LRU; otherwise the table is probed and the hint re-armed. Hit/miss
    accounting is identical to {!parse}. *)

val clear : t -> unit
(** Drop every entry. *)

val invalidate_key : t -> Opkey.t -> int
(** Drop the entries whose program uses the given operation key —
    the {!Control} FN install/upgrade hook — and so their shared
    programs. Returns how many entries were dropped. *)

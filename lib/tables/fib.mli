(** Million-route forwarding tables.

    The {!Lpm_trie} behind {i F_32_match} / {i F_128_match} is a
    pointer-chasing binary trie: correct, but a 32-level dependent
    walk per lookup. At a million routes that is the forwarding
    bottleneck. This module provides the at-scale engines:

    - {!V4} is a DIR-24-8-style flat-array engine (Gupta, Lin &
      McKeown, "Routing lookups in hardware at memory access
      speeds"): a 16.7M-slot /24 table of packed 16-bit next-hop
      indices plus 256-entry spill blocks for prefixes longer than
      /24. A lookup is at most two array reads and never allocates.
    - {!V6} is a compressed stride-8 multibit trie: nodes start as
      sorted sparse arrays and promote to dense 256-way arrays as
      they fill, bounding both depth (≤ 16 strides) and memory at
      100k+ routes.

    Both engines intern next-hop values (a production FIB has
    millions of routes but only a handful of distinct next hops), do
    {e incremental} insert/remove (only the covered slots are
    touched, with an authoritative side store keyed by (length,
    masked prefix) to re-cover slots on withdrawal), and account their own memory so [dip fib]
    can report bytes/route. The binary trie stays as the correctness
    oracle (see [test_fib.ml]). *)

module V4 : sig
  type 'a t

  val create : unit -> 'a t
  (** An empty table. Allocation is lazy: an empty table is a few
      words (it shares its chunks and chunk arrays with every other
      table until its first insert), and the /24 table materializes
      in 16k-slot chunks as routes arrive, so per-node [Env]s stay
      cheap. *)

  val size : 'a t -> int
  (** Number of installed prefixes. *)

  val insert : 'a t -> Ipaddr.V4.t -> len:int -> 'a -> unit
  (** [insert t addr ~len v] installs the [len]-bit prefix of [addr]
      ([len] in [\[0,32\]]; host bits are ignored), replacing any
      previous binding of exactly that prefix. Raises [Failure] past
      the engine's encoding limits (32767 distinct next-hop values,
      32768 live spill blocks). *)

  val remove : 'a t -> Ipaddr.V4.t -> len:int -> bool
  (** Withdraw an exact prefix; returns whether it was present.
      Covered slots fall back to the next-best covering route. *)

  val lookup : 'a t -> Ipaddr.V4.t -> (int * 'a) option
  (** Longest-prefix match: [(prefix_len, value)], like
      {!Lpm_trie.lookup}. *)

  val lookup_id : 'a t -> Ipaddr.V4.t -> int
  (** Allocation-free longest-prefix match: the interned next-hop id
      (resolve with {!value}), or [-1] when no route matches. This is
      the forwarding hot path. *)

  val lookup_int : 'a t -> int -> int
  (** {!lookup_id} on the address whose unsigned value is the low 32
      bits of the [int]: a destination read off the wire as an [int]
      is looked up without boxing it. *)

  val value : 'a t -> int -> 'a
  (** Resolve an id returned by {!lookup_id}. Raises
      [Invalid_argument] on an id never handed out. *)

  val fold : (Ipaddr.V4.t -> int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
  (** Fold over installed prefixes as [f addr len v acc]; order is
      unspecified. *)

  type stats = {
    routes : int;
    next_hops : int;  (** distinct interned values *)
    chunks : int;  (** materialized 16k-slot /24-table chunks (of 1024) *)
    spill_blocks : int;  (** live 256-entry blocks for /25–/32 routes *)
    lookup_bytes : int;
        (** bytes in the flat lookup structures (the data-plane
            footprint a line card would hold) *)
    total_bytes : int;
        (** [lookup_bytes] plus an estimate of the control-plane side
            store (the side table, interned values). The chunks and
            arrays an empty table shares are charged to no table. *)
  }

  val stats : 'a t -> stats

  val shared_pristine : unit -> bool
  (** Whether the read-only zero chunk, empty-length chunk and chunk
      arrays that tables share until their first write still hold
      their initial contents (all zero, all 0xFF, sentinels only, no
      cover words). Always [true] unless a write path wrote through
      a shared structure; a check for tests. *)
end

module V6 : sig
  type 'a t

  val create : unit -> 'a t
  val insert : 'a t -> Ipaddr.V6.t -> len:int -> 'a -> unit
  (** [len] in [\[0,128\]]; host bits are ignored. *)

  val remove : 'a t -> Ipaddr.V6.t -> len:int -> bool
  val lookup : 'a t -> Ipaddr.V6.t -> (int * 'a) option

  val lookup_id : 'a t -> int64 -> int64 -> int
  (** [lookup_id t hi lo]: longest-prefix match without constructing
      the address pair; interned id or [-1]. *)

  val value : 'a t -> int -> 'a

  type stats = {
    routes : int;
    next_hops : int;
    nodes : int;  (** trie nodes *)
    dense_nodes : int;  (** nodes promoted to 256-way arrays *)
    lookup_bytes : int;
    total_bytes : int;
  }

  val stats : 'a t -> stats
end

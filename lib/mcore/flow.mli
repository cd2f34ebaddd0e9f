(** Flow hashing for worker sharding — the software analogue of NIC
    receive-side scaling.

    Per-flow state (the PIT, the OPT session tables, NetFence flow
    counters) lives in per-worker {!Dip_core.Env.t}s, so correctness
    requires that every packet of a flow lands on the same worker.
    The flow identity of a DIP packet is its {e match field}: the
    target field of the first forwarding FN (F_32_match's
    destination address, F_FIB/F_PIT's content name, F_DAG's DAG) —
    exactly the bytes the forwarding decision reads, so two packets
    that forward alike hash alike.

    The hash is CRC-32 over those bytes. It is a pure function of
    the packet contents: sharding is deterministic across runs and
    across pool sizes, which is what makes the N-domain simulator
    reproducible. *)

val match_field : Dip_bitbuf.Bitbuf.t -> Dip_bitbuf.Field.t option
(** The absolute bit range of the first forwarding FN's target — the
    flow identity {!hash} digests (byte-rounded) and the invariant
    {!Dip_analysis}'s Sharding check protects: no FN may rewrite
    these bits with node-local or packet-derived data, or per-flow
    worker affinity breaks. [None] when the header does not parse or
    no forwarding FN exists ({!hash} then covers the whole buffer). *)

val hash : Dip_bitbuf.Bitbuf.t -> int
(** [hash pkt] is a non-negative flow hash. Packets whose DIP header
    does not parse, or with no forwarding FN, hash over the whole
    buffer (still deterministic, no sharding benefit). It reads the
    header and triples where they lie and allocates nothing. *)

val shard : Dip_bitbuf.Bitbuf.t -> workers:int -> int
(** [hash pkt mod workers] ([0] when [workers <= 1]). *)

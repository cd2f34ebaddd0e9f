(** The DIP packet processing engine — Algorithm 1 of the paper.

    {v
    parse basic DIP header (FN_Num and FN_LocLen);
    parse FN[] according to FN_Num;
    extract FN_Loc according to FN_LocLen;
    for i ← 1 to FN_Num do
      if FN[i].tag == 1 then continue        (skip host operation)
      else
        target_field ← FN_Loc(FN[i].FieldLoc, FN[i].FieldLen);
        switch FN[i].key do … dispatch to the operation module
    end processing
    v}

    {!process} is the router-side loop (skips host-tagged FNs,
    decrements the hop limit when forwarding); {!host_process} is the
    receiving host's dual (runs only host-tagged FNs, e.g.
    {i F_ver}). Both enforce the §2.4 guard budget and the §2.4
    heterogeneous-deployment rule: an uninstalled operation key is
    skipped if ignorable and generates an FN-unsupported notification
    if it requires all-path participation. *)

type verdict =
  | Forwarded of Env.port list
  | Delivered
  | Responded of Dip_bitbuf.Bitbuf.t
      (** a reply (e.g. cached data) to send out of the ingress port *)
  | Quiet  (** processed but nothing to transmit (aggregation) *)
  | Dropped of string
  | Unsupported of Opkey.t
      (** a mandatory FN this node does not support; the caller
          should return {!Errors.fn_unsupported} to the source *)

(** Execution accounting, read by the parallelism ablation. *)
type info = {
  ops_run : int;  (** router FNs actually executed *)
  ops_skipped : int;  (** host-tagged or unsupported-but-ignorable *)
  state_bytes : int;  (** §2.4 state consumed (PIT inserts etc.) *)
  parallel_depth : int;
      (** length of the FN dependency critical path over the FNs that
          actually executed (tag-skipped and unknown-ignorable FNs
          contribute no dataplane work): with the §2.2 parallel bit
          set, a modular-parallel dataplane finishes in this many
          sequential steps instead of [ops_run] *)
}

val mandatory : Opkey.t -> bool
(** Keys that "require all on-path ASes to participate" (§2.4): the
    OPT path-authentication operations. *)

val critical_path : Fn.t array -> int
(** Length of the FN dependency critical path over a whole program:
    FNs whose target fields overlap are serialized, everything else
    may run concurrently (§2.2 parallel bit). This is the engine's
    conservative (access-mode-blind) estimate; the {!Dip_analysis}
    verifier recomputes it from declared {!Registry.access} modes and
    cross-checks the two. [parallel_depth] restricts the same
    analysis to the executed subset. *)

val critical_path_over : Fn.t array -> included:(int -> bool) -> int
(** {!critical_path} restricted to the FNs whose index satisfies
    [included] — what [parallel_depth] reports when some FNs were
    skipped. *)

val process :
  ?obs:Obs.t ->
  ?verify:(Packet.view -> (unit, string) result) ->
  registry:Registry.t ->
  Env.t ->
  now:float ->
  ingress:Env.port ->
  Dip_bitbuf.Bitbuf.t ->
  verdict * info
(** Router-side Algorithm 1. Mutates the packet in place (tag
    updates, pointer advances, hop limit). When [verify] is given it
    runs on the parsed view {e before} any FN executes; an [Error e]
    fails fast with [Dropped ("verify: " ^ e)] — pass
    [Dip_analysis.verifier] to statically reject malformed FN
    programs.

    When [obs] is given, per-opkey run/skip/error counts and
    (sampled) execution spans are recorded through it ({!Obs});
    without it the loop stays allocation- and clock-free. Verdicts
    are counted by {!actions_of_verdict}, not here.

    Algorithm 1 runs staged. The node's {!Env.prog_cache} keys the
    packet's basic-header + FN-definition prefix; the first packet of
    a program compiles it once against [registry] and the side it
    runs on — each FN's operation module applied to the FN and its
    absolute target slice ({!Registry.impl}), or a skip decided (a tag
    mismatch, or an uninstalled key that may be ignored), an
    [Unsupported] verdict fixed — and every later packet runs that
    compiled array through one reused {!Env.ctx}. The [info] is read
    from the accounting the run left in the node's {!Env.t}. A program is recompiled when it meets a
    different registry, or the same one after an {!Registry.install}
    or {!Registry.uninstall}, so a direct registry change reaches the
    next packet. Entries that differ only in the next-header byte
    share one compiled program ({!Progcache}), so [verify] runs once
    per FN program and hook while the program is cached, and again
    after a recompile: it must be a pure function of the FN program
    and the registry, which {!Dip_analysis.verifier} is. With the cache off
    ([Env.create ~prog_cache_capacity:0]),
    or for a packet too short to key, each packet compiles a
    throwaway program and runs the same loop. *)

val host_process :
  ?obs:Obs.t ->
  ?verify:(Packet.view -> (unit, string) result) ->
  registry:Registry.t ->
  Env.t ->
  now:float ->
  ingress:Env.port ->
  Dip_bitbuf.Bitbuf.t ->
  verdict * info
(** Host-side: executes only host-tagged FNs; a packet with no host
    FNs is simply delivered. *)

val actions_of_verdict :
  Env.t ->
  ingress:Env.port ->
  Dip_bitbuf.Bitbuf.t ->
  verdict ->
  Dip_netsim.Sim.action list
(** The router-side verdict → simulator-action translation {!handler}
    applies: [Forwarded] becomes per-port transmissions (with fan-out
    buffer copies), [Unsupported] becomes the §2.3 FN-unsupported
    notification plus a drop, and so on. Counts the verdict through
    [env]'s pre-registered [dip.*] handles ({!Env.counts}), the one
    place a verdict is counted. Also drains the auxiliary-transmission channel
    ([scratch.emit] — custody ACKs pushed by F_cust during the
    preceding [process]) into leading [Forward] actions. Exposed so
    batched dispatchers ({!Dip_mcore.Pool}) can produce action lists
    off the handler path. *)

val process_batch :
  ?obs:Obs.t ->
  ?verify:(Packet.view -> (unit, string) result) ->
  registry:Registry.t ->
  Env.t ->
  now:float ->
  ingress:Env.port ->
  Dip_bitbuf.Bitbuf.t array ->
  (verdict * info) array
(** {!process} over every buffer, then one
    {!Env.publish_cache_stats}. A run of
    same-program packets is served by the program cache's inline
    hint, as it is for {!process}. *)

val handler :
  ?obs:Obs.t ->
  ?verify:(Packet.view -> (unit, string) result) ->
  registry:Registry.t ->
  Env.t ->
  Dip_netsim.Sim.handler
(** A DIP router as a simulator node. Unsupported-FN verdicts send
    an {!Errors.fn_unsupported} notification back out the ingress
    port. After every packet it copies the node's program-cache
    totals into [env]'s [progcache.*] counters
    ({!Env.publish_cache_stats}) and counts the verdict
    ({!actions_of_verdict}). *)

val host_handler :
  ?obs:Obs.t ->
  ?verify:(Packet.view -> (unit, string) result) ->
  registry:Registry.t ->
  Env.t ->
  Dip_netsim.Sim.handler
(** A DIP end host as a simulator node. *)

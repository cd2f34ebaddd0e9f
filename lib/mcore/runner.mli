(** Plugging worker pools into the discrete-event simulator.

    {!run_parallel} is {!Dip_netsim.Sim.run_batched} with an [exec]
    that groups each window's arrivals per node and runs every group
    through that node's {!Pool.handle_batch}; the simulator applies
    the returned action lists on the calling domain, in arrival
    order, before it pops the next event. Each window is a full
    barrier: a window is executed and applied before the next one is
    collected, and the pools of one window run one after another. *)

val run_parallel :
  ?until:float ->
  ?window:float ->
  Dip_netsim.Sim.t ->
  pools:(Dip_netsim.Sim.node_id * Pool.t) list ->
  unit
(** [run_parallel sim ~pools] runs [sim] to completion, executing
    arrivals at each listed node through its pool; all other nodes
    (and timers) run their normal handlers, after the pending window
    was applied. [window] (default 0: same-instant arrivals only)
    widens batches to arrivals within that many seconds of the
    first, with exactly the {!Dip_netsim.Sim.run_batched} semantics.

    The contract: when each pool's snapshot builds the environment
    the node's own handler ({!Dip_core.Engine.handler}) would use and
    that environment keeps only flow-local state (the sharding
    contract of {!Flow}), a [~window:0.0] run is {!Dip_netsim.Sim.run}
    — the same deliveries (times and bytes), counters and final
    clock — at any domain count. A wider window is a function of the
    window and the workload only, never of the domain count. The
    caller keeps ownership of the pools and must {!Pool.shutdown}
    them. *)

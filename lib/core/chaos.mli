(** A canned fault-injection experiment: a reliable host pair
    ({!Host.Reliable}) across a chain of DIP routers with a
    {!Dip_netsim.Faults} layer attached.

    The topology is [sender — r1 — … — rN — receiver]; every router
    runs the full engine (Algorithm 1) over DIP-32 FNs with static
    routes (data toward 10/8, ACKs toward 192.168/16). Faults apply
    to every link; the optional link-flap window hits the link
    downstream of the middle router and the optional crash window
    hits the middle router itself.

    Shared by [dip chaos], [bench faults] and the test suite so that
    all three exercise the identical recovery path. Fully
    deterministic per [seed]. *)

type config = {
  routers : int;  (** chain length, ≥ 1 *)
  packets : int;  (** unique payloads to send *)
  interval : float;  (** seconds between sends *)
  payload_size : int;  (** bytes per payload *)
  seed : int64;  (** drives faults (seed) and sender jitter (seed+1) *)
  spec : Dip_netsim.Faults.spec;  (** applied to all links *)
  flap : (float * float) option;  (** middle-link down window *)
  schedule : (float * float) list;
      (** additional middle-link down windows — e.g. the output of
          {!Dip_netsim.Workload.satellite_passes} for DTN runs *)
  crash : (float * float) option;  (** middle-router crash window *)
  reliable : Host.Reliable.config;
      (** set [max_retries = 0] to measure without retransmission *)
  custody : Custody.config option;
      (** [Some _] turns every router into a custodian
          ({!Custody.add_router}), marks all data packets with the
          F_cust custody request and replays held bundles on link-up *)
}

val default : config
(** 3 routers, 200 packets at 10 ms spacing, 32-byte payloads, seed
    42, no faults, default reliable config, no custody. *)

type report = {
  sent : int;
  delivered : int;  (** unique sequences that reached the receiver *)
  duplicates : int;
  rejected : int;  (** integrity-check drops at the endpoints *)
  transmissions : int;  (** data packets put on the wire *)
  acked : int;
  custodied : int;  (** sequences the sender handed to a custodian *)
  gave_up : int;
  in_flight : int;  (** unacked at drain — 0 when every fate resolved *)
  delivery_rate : float;  (** delivered / sent *)
  latency_mean : float;  (** send-to-first-delivery, seconds *)
  latency_p50 : float;
  latency_p99 : float;
  faults : (string * int) list;  (** injected faults by kind *)
  counters : (string * int) list;  (** simulator counters *)
  custody : (string * int) list;
      (** custody-store counters summed over all routers
          ({!Custody.stats} keys); empty without custody *)
  deliveries : (int32 * float) list;
      (** first delivery of each sequence in delivery order — lets
          callers check reruns for bit-identical behavior *)
}

val run :
  ?metrics:Dip_obs.Metrics.t -> ?flight:Dip_obs.Flight.ring -> config -> report
(** Build the network, inject the workload, drain the simulator and
    summarize. [metrics] receives the engine's per-opkey series during
    the run and, at the end, absorbs the simulator's registry
    ({!Dip_netsim.Sim.counters}: per-node, [sim.fault.*],
    [custody.replay], [sim.link.queue_depth]) and every router's own
    counters ([dip.*], [progcache.*], [custody.*]), summed over the
    chain.
    [flight] records the whole experiment — engine spans (unsampled),
    program-cache traffic, window lifecycle and fault injections —
    into one caller-owned ring (everything runs on the simulator's
    domain), ready for {!Dip_obs.Export.chrome_trace}. *)

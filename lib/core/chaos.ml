module Sim = Dip_netsim.Sim
module Faults = Dip_netsim.Faults
module Stats = Dip_netsim.Stats
module Ipaddr = Dip_tables.Ipaddr
module Reliable = Host.Reliable

type config = {
  routers : int;
  packets : int;
  interval : float;
  payload_size : int;
  seed : int64;
  spec : Faults.spec;
  flap : (float * float) option;
  schedule : (float * float) list;
  crash : (float * float) option;
  reliable : Reliable.config;
  custody : Custody.config option;
}

let default =
  {
    routers = 3;
    packets = 200;
    interval = 0.01;
    payload_size = 32;
    seed = 42L;
    spec = Faults.spec ();
    flap = None;
    schedule = [];
    crash = None;
    reliable = Reliable.default_config;
    custody = None;
  }

type report = {
  sent : int;
  delivered : int;
  duplicates : int;
  rejected : int;
  transmissions : int;
  acked : int;
  custodied : int;
  gave_up : int;
  in_flight : int;
  delivery_rate : float;
  latency_mean : float;
  latency_p50 : float;
  latency_p99 : float;
  faults : (string * int) list;
  counters : (string * int) list;
  custody : (string * int) list;
  deliveries : (int32 * float) list;
}

(* Sender and receiver sit in distinct prefixes so every router can
   route data (10/8, toward the receiver) and ACKs (192.168/16, back
   toward the sender) with two static entries. *)
let sender_addr = Ipaddr.V4.of_string "192.168.0.1"
let receiver_addr = Ipaddr.V4.of_string "10.0.0.1"

let payload_for cfg i =
  let s = Printf.sprintf "chaos-%06d-" i in
  let n = max 1 cfg.payload_size in
  if String.length s >= n then String.sub s 0 n
  else s ^ String.make (n - String.length s) 'x'

let run ?metrics ?flight cfg =
  if cfg.routers < 1 then invalid_arg "Chaos.run: need at least one router";
  if cfg.packets < 0 then invalid_arg "Chaos.run: negative packet count";
  if cfg.interval <= 0.0 then invalid_arg "Chaos.run: non-positive interval";
  let sim = Sim.create () in
  Sim.set_flight sim flight;
  (* Everything runs on the simulator's domain, so one ring carries
     engine, progcache, window and fault events alike; sample_every:1
     because a chaos run is short and post-mortems want every span. *)
  let obs =
    match flight with
    | None -> None
    | Some r ->
        let reg =
          match metrics with Some m -> m | None -> Dip_obs.Metrics.create ()
        in
        Some (Obs.create ~sample_every:1 ~flight:r reg)
  in
  let registry = Ops.default_registry () in
  (* With custody enabled every router becomes a custodian (store +
     replay path out of port 1, the data direction); [cust_routers]
     keeps the handles for link-up hooks and the aggregate report. *)
  let cust_routers = Array.make cfg.routers None in
  let envs =
    Array.init cfg.routers (fun i -> Env.create ~name:(Printf.sprintf "r%d" (i + 1)) ())
  in
  let routers =
    Array.mapi
      (fun i env ->
        let name = env.Env.name in
        Progcache.set_flight env.Env.prog_cache flight;
        Dip_ip.Ipv4.add_route env.Env.v4_routes
          (Ipaddr.Prefix.of_string "10.0.0.0/8")
          1;
        Dip_ip.Ipv4.add_route env.Env.v4_routes
          (Ipaddr.Prefix.of_string "192.168.0.0/16")
          0;
        match cfg.custody with
        | Some ccfg ->
            let r =
              Custody.add_router ?obs ?flight ~config:ccfg sim
                ~registry ~env ~name ~out_port:1 ()
            in
            cust_routers.(i) <- Some r;
            Custody.node r
        | None -> Sim.add_node sim ~name (Engine.handler ?obs ~registry env))
      envs
  in
  let sender =
    Reliable.add_sender ~config:cfg.reliable
      ~custody:(Option.is_some cfg.custody) sim ~name:"sender"
      ~seed:(Int64.add cfg.seed 1L) ~src:sender_addr ~dst:receiver_addr
      ~out_port:0
  in
  let recv, recv_node = Reliable.add_receiver sim ~name:"receiver" in
  let link a b = Sim.connect sim ~latency:1e-3 a b in
  link (Reliable.sender_node sender, 0) (routers.(0), 0);
  for i = 0 to cfg.routers - 2 do
    link (routers.(i), 1) (routers.(i + 1), 0)
  done;
  link (routers.(cfg.routers - 1), 1) (recv_node, 0);
  (* The fault layer draws from [seed] itself; the sender's timer
     jitter uses seed+1 (above), so the two streams are independent
     but both reproducible. *)
  let faults = Faults.attach ~seed:cfg.seed sim in
  Faults.all_links faults cfg.spec;
  let mid = routers.(cfg.routers / 2) in
  let windows =
    (match cfg.flap with Some w -> [ w ] | None -> []) @ cfg.schedule
  in
  List.iter
    (fun (a, b) -> Faults.link_down faults (mid, 1) ~from_:a ~until:b)
    windows;
  (match cfg.crash with
  | Some (a, b) -> Faults.crash_node faults mid ~at:a ~until:b
  | None -> ());
  (* Every custodian replays its held bundles the moment its data
     egress comes back up (the DTN contact event); the periodic sweep
     in Custody covers lost custody ACKs. *)
  Array.iter
    (function
      | Some r ->
          Faults.on_link_up faults
            (Custody.node r, 1)
            (fun _now -> Custody.replay r)
      | None -> ())
    cust_routers;
  for i = 0 to cfg.packets - 1 do
    Reliable.send sender
      ~at:(float_of_int i *. cfg.interval)
      ~payload:(payload_for cfg i)
  done;
  Sim.run sim;
  (* The export carries the simulator's per-node, fault, replay and
     queue-depth series and each router's own dip.* / progcache.* /
     custody.* counters, summed over the chain. *)
  Option.iter
    (fun m ->
      Dip_obs.Metrics.absorb m (Sim.counters sim);
      Array.iter (fun env -> Dip_obs.Metrics.absorb m env.Env.counters) envs)
    metrics;
  let ss = Reliable.sender_stats sender in
  let lat =
    List.map
      (fun (seq, t) -> t -. (float_of_int (Int32.to_int seq) *. cfg.interval))
      (Reliable.deliveries recv)
  in
  let sorted = Array.of_list lat in
  let n = Array.length sorted in
  Array.sort Float.compare sorted;
  (* Linear interpolation between order statistics (Hyndman–Fan type
     7, the R/NumPy default): with k samples a nearest-rank rule would
     report the maximum for every p ≥ 100·(k−1)/k. *)
  let pct p =
    if n = 0 then 0.0
    else
      let h = float_of_int (n - 1) *. p /. 100.0 in
      let lo = int_of_float h in
      let hi = min (n - 1) (lo + 1) in
      sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))
  in
  let delivered = Reliable.delivered recv in
  let custody =
    match List.filter_map Fun.id (Array.to_list cust_routers) with
    | [] -> []
    | rs ->
        let keys = List.map fst (Custody.stats (List.hd rs)) in
        List.map
          (fun k ->
            ( k,
              List.fold_left
                (fun acc r -> acc + List.assoc k (Custody.stats r))
                0 rs ))
          keys
  in
  {
    sent = ss.Reliable.sent;
    delivered;
    duplicates = Reliable.duplicates recv;
    rejected = Reliable.rejected recv;
    transmissions = ss.Reliable.transmissions;
    acked = ss.Reliable.acked;
    custodied = ss.Reliable.custodied;
    gave_up = ss.Reliable.gave_up;
    in_flight = ss.Reliable.in_flight;
    delivery_rate =
      (if ss.Reliable.sent = 0 then 1.0
       else float_of_int delivered /. float_of_int ss.Reliable.sent);
    latency_mean =
      (if n = 0 then 0.0 else List.fold_left ( +. ) 0.0 lat /. float_of_int n);
    latency_p50 = pct 50.0;
    latency_p99 = pct 99.0;
    faults = Faults.counts faults;
    counters = Stats.Counters.to_list (Sim.counters sim);
    custody;
    deliveries = Reliable.deliveries recv;
  }

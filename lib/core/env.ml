type port = Dip_netsim.Sim.port

type opt_identity = {
  session_frame : Dip_crypto.Prf.frame;
  hop_frame : Dip_crypto.Prf.frame;
  derived : Bytes.t;
  opt_key : Dip_opt.Protocol.key;
  opt_loaded : Dip_opt.Protocol.key option;
  hop_key : Dip_crypto.Mac2em.key;
  tmp : Bytes.t;
}

type scratch = {
  mutable opt_key : Dip_opt.Protocol.key option;
  mutable emit : Dip_netsim.Sim.action list;
}

type counts = {
  forwarded : Dip_obs.Metrics.counter;
  delivered : Dip_obs.Metrics.counter;
  responded : Dip_obs.Metrics.counter;
  quiet : Dip_obs.Metrics.counter;
  dropped : Dip_obs.Metrics.family;
  unsupported : Dip_obs.Metrics.family;
  pc_hit : Dip_obs.Metrics.counter;
  pc_miss : Dip_obs.Metrics.counter;
  pc_evict : Dip_obs.Metrics.counter;
  custody_ack : Dip_obs.Metrics.counter;
  pit_expired : Dip_obs.Metrics.counter;
  pit_rejected : Dip_obs.Metrics.counter;
}

type ctx = {
  env : t;
  mutable view : Packet.view;
  mutable ingress : port;
  mutable now : float;
  scratch : scratch;
  budget : Guard.budget;
}

and t = {
  name : string;
  v4_routes : port Dip_tables.Fib.V4.t;
  v6_routes : port Dip_tables.Fib.V6.t;
  mutable local_v4 : Dip_tables.Ipaddr.V4.t option;
  mutable local_v6 : Dip_tables.Ipaddr.V6.t option;
  fib : port Dip_tables.Name_fib.t;
  pit : Dip_tables.Pit.t;
  cache : string Dip_tables.Custody_store.t option;
  interest_lifetime : float;
  mutable opt_identity : opt_identity option;
  mutable opt_hop : int;
  opt_alg : Dip_opt.Protocol.alg;
  opt_sessions :
    (int64, Dip_opt.Drkey.session_key list * Dip_opt.Drkey.session_key) Hashtbl.t;
  xia : Dip_xia.Router.t;
  mutable pass_key : Dip_crypto.Siphash.key option;
  mutable pass_enabled : bool;
  mutable netfence : Dip_netfence.Policer.t option;
  mutable node_id : int;
  mutable queue_depth : unit -> int;
  guard : Guard.t;
  counters : Dip_netsim.Stats.Counters.t;
  counts : counts;
  ctx : ctx;
  prog_cache : Progcache.t;
  mutable ops_run : int;
  mutable ops_skipped : int;
  mutable parallel_depth : int;
  mutable custody :
    Dip_bitbuf.Bitbuf.t Dip_tables.Custody_store.t option;
}

let register_counts m =
  let c = Dip_obs.Metrics.counter m in
  {
    forwarded = c "dip.forwarded";
    delivered = c "dip.delivered";
    responded = c "dip.responded";
    quiet = c "dip.quiet";
    dropped = Dip_obs.Metrics.family m "dip.drop.";
    unsupported = Dip_obs.Metrics.family m "dip.unsupported.";
    pc_hit = c (Progcache.stat_name Hit);
    pc_miss = c (Progcache.stat_name Miss);
    pc_evict = c (Progcache.stat_name Evict);
    custody_ack = c "custody.ack";
    pit_expired = c "pit.expired";
    pit_rejected = c "pit.rejected";
  }

(* What a fresh node's [ctx] points at until its first FN runs. *)
let idle_view =
  {
    Packet.header =
      { Header.next_header = 0; fn_num = 0; hop_limit = 0; parallel = false;
        fn_loc_len = 0 };
    fns = [||];
    loc_base = 0;
    buf = Dip_bitbuf.Bitbuf.create 0;
  }

let create ?(cache_capacity = 0) ?(pit_capacity = 65536)
    ?(interest_lifetime = 4.0) ?(opt_alg = Dip_opt.Protocol.EM2) ?guard
    ?(prog_cache_capacity = 512) ~name () =
  let counters = Dip_obs.Metrics.create () in
  let guard = match guard with Some g -> g | None -> Guard.create () in
  let rec t =
    {
      name;
      v4_routes = Dip_tables.Fib.V4.create ();
      v6_routes = Dip_tables.Fib.V6.create ();
      local_v4 = None;
      local_v6 = None;
      fib = Dip_tables.Name_fib.create ();
      pit = Dip_tables.Pit.create ~capacity:pit_capacity ();
      cache =
        (if cache_capacity > 0 then
           Some
             (Dip_tables.Custody_store.create ~capacity:cache_capacity
                ~max_bytes:max_int ~size:String.length ())
         else None);
      interest_lifetime;
      opt_identity = None;
      opt_hop = 1;
      opt_alg;
      opt_sessions = Hashtbl.create 8;
      xia = Dip_xia.Router.create ();
      pass_key = None;
      pass_enabled = false;
      netfence = None;
      node_id = 0;
      queue_depth = (fun () -> 0);
      guard;
      counters;
      counts = register_counts counters;
      ctx;
      prog_cache = Progcache.create ~capacity:prog_cache_capacity ();
      ops_run = 0;
      ops_skipped = 0;
      parallel_depth = 0;
      custody = None;
    }
  and ctx =
    {
      env = t;
      view = idle_view;
      ingress = 0;
      now = 0.0;
      scratch = { opt_key = None; emit = [] };
      budget = Guard.start guard;
    }
  in
  (* The PIT's rare events, counted where they happen. *)
  Dip_tables.Pit.set_observer t.pit (function
    | Dip_tables.Pit.Expire -> Dip_obs.Metrics.Counter.incr t.counts.pit_expired
    | Dip_tables.Pit.Reject -> Dip_obs.Metrics.Counter.incr t.counts.pit_rejected);
  t

let set_opt_identity t ~secret ~hop =
  if hop < 1 then invalid_arg "Env.set_opt_identity: hops are 1-based";
  let zero = String.make 16 '\000' in
  let opt_key = Dip_opt.Protocol.expand ~alg:t.opt_alg zero in
  t.opt_identity <-
    Some
      {
        session_frame = Dip_opt.Drkey.session_frame secret;
        hop_frame = Dip_epic.Protocol.hop_frame secret;
        derived = Bytes.create 16;
        opt_key;
        opt_loaded = Some opt_key;
        hop_key = Dip_crypto.Mac2em.expand_key zero;
        tmp = Bytes.create 16;
      };
  t.opt_hop <- hop

let register_opt_session t ~session_id ~session_keys ~dest_key =
  Hashtbl.replace t.opt_sessions session_id (session_keys, dest_key)

let enable_pass t ~key =
  t.pass_key <- Some key;
  t.pass_enabled <- true

let disable_pass t = t.pass_enabled <- false

let set_netfence t p = t.netfence <- Some p

let set_telemetry_identity t ~node_id ~queue_depth =
  t.node_id <- node_id;
  t.queue_depth <- queue_depth

let find_content t h =
  match t.cache with Some c -> Dip_tables.Custody_store.find c h | None -> None

let store_content t h v =
  match t.cache with
  | Some c -> ignore (Dip_tables.Custody_store.take c h v)
  | None -> ()

let publish_cache_stats t =
  let c = t.counts and pc = t.prog_cache in
  Dip_obs.Metrics.Counter.set c.pc_hit (Progcache.hits pc);
  Dip_obs.Metrics.Counter.set c.pc_miss (Progcache.misses pc);
  Dip_obs.Metrics.Counter.set c.pc_evict (Progcache.evictions pc)

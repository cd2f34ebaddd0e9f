(* The dip command-line tool.

   Subcommands:
     dip catalog                      list the FN operation catalog (Table 1)
     dip inspect -p <protocol>        build a packet and dump header + hex
     dip sizes                        header overhead per protocol (Table 2)
     dip figure2                      forwarding time per realization (Figure 2)
     dip demo -p <protocol> -n <N>    run an N-router chain in the simulator
                                      (--metrics[=table|json|prom] exports the
                                      unified Dip_obs registry)
     dip trace -p <protocol> -n <N>   one packet through the chain: host-side
                                      trace merged with in-band F_tel records
     dip estimate -p <protocol>       PISA cost-model estimate per hop
     dip lint [-p <protocol>|--all|--hex H]
                                      statically verify FN programs
     dip chaos [--drop P ...]         reliable host pair over a faulty chain
                                      (seeded fault injection + recovery report)
     dip fib [--routes N]             build the at-scale forwarding tables from
                                      a seeded BGP-shaped prefix set and report
                                      build rate, memory layout, sample probes

   Everything here drives the same public API the examples use. *)

open Cmdliner
open Dip_core
module Bitbuf = Dip_bitbuf.Bitbuf
module Ipaddr = Dip_tables.Ipaddr
module Name = Dip_tables.Name

let registry = Ops.default_registry ()
let v4 = Ipaddr.V4.of_string
let v6 = Ipaddr.V6.of_string

type proto = Dip32 | Dip128 | Ndn | Opt | Ndn_opt | Xia | Epic

let proto_conv =
  let parse = function
    | "dip32" | "ipv4" -> Ok Dip32
    | "dip128" | "ipv6" -> Ok Dip128
    | "ndn" -> Ok Ndn
    | "opt" -> Ok Opt
    | "ndn+opt" | "ndnopt" -> Ok Ndn_opt
    | "xia" -> Ok Xia
    | "epic" -> Ok Epic
    | s -> Error (`Msg (Printf.sprintf "unknown protocol %S" s))
  in
  let print fmt p =
    Format.pp_print_string fmt
      (match p with
      | Dip32 -> "dip32"
      | Dip128 -> "dip128"
      | Ndn -> "ndn"
      | Opt -> "opt"
      | Ndn_opt -> "ndn+opt"
      | Xia -> "xia"
      | Epic -> "epic")
  in
  Arg.conv (parse, print)

let proto_arg =
  Arg.(
    required
    & opt (some proto_conv) None
    & info [ "p"; "protocol" ] ~docv:"PROTOCOL"
        ~doc:"Protocol to realize: dip32, dip128, ndn, opt, ndn+opt, xia or epic.")

(* [payload] defaults to "demo" ("" for an NDN interest). *)
let sample_packet ?(hops = 1) ?payload proto =
  let dest_key = String.make 16 'k' in
  let name = Name.of_string "/hotnets.org/dip" in
  let demo = Option.value payload ~default:"demo" in
  match proto with
  | Dip32 ->
      Realize.ipv4 ~src:(v4 "192.0.2.7") ~dst:(v4 "10.9.0.42") ~payload:demo ()
  | Dip128 ->
      Realize.ipv6 ~src:(v6 "2001:db8::1") ~dst:(v6 "2001:db8::42")
        ~payload:demo ()
  | Ndn ->
      Realize.ndn_interest ~name ~payload:(Option.value payload ~default:"") ()
  | Opt ->
      (* Composed with DIP-32 forwarding so routers can move it: the
         OPT region is followed by dst/src addresses in the
         locations. *)
      let opt_bits = Dip_opt.Header.size_bits ~hops in
      let region = Bitbuf.create ((opt_bits / 8) + 8) in
      Dip_opt.Protocol.source_init region ~base:0 ~hops ~session_id:0xD1AL
        ~timestamp:1l ~dest_key ~payload:demo;
      Bitbuf.blit
        ~src:
          (Bitbuf.of_string
             (Ipaddr.V4.to_wire (v4 "10.9.0.42")
             ^ Ipaddr.V4.to_wire (v4 "192.0.2.7")))
        ~src_off:0 ~dst:region ~dst_off:(opt_bits / 8) ~len:8;
      Packet.build
        ~fns:
          [
            Fn.v ~loc:128 ~len:128 Opkey.F_parm;
            Fn.v ~loc:0 ~len:416 Opkey.F_mac;
            Fn.v ~loc:288 ~len:128 Opkey.F_mark;
            Fn.v ~tag:Fn.Host ~loc:0 ~len:opt_bits Opkey.F_ver;
            Fn.v ~loc:opt_bits ~len:32 Opkey.F_32_match;
            Fn.v ~loc:(opt_bits + 32) ~len:32 Opkey.F_source;
          ]
        ~locations:(Bitbuf.to_string region) ~payload:demo ()
  | Ndn_opt ->
      Realize.ndn_opt_data ~hops ~session_id:0xD1AL ~timestamp:1l ~dest_key
        ~name ~content:demo ()
  | Xia ->
      let open Dip_xia in
      let dag =
        Dag.fallback
          ~intent:(Xid.of_name Xid.SID "svc")
          ~via:[ Xid.of_name Xid.AD "as1"; Xid.of_name Xid.HID "h1" ]
      in
      Realize.xia ~dag ~payload:demo ()
  | Epic ->
      (* Hop keys derived from the same deterministic router secrets
         the demo chain installs, in path order. *)
      let hop_keys =
        List.init hops (fun i ->
            Dip_epic.Protocol.derive_key
              (Dip_opt.Drkey.secret_of_string
                 (Printf.sprintf "router-secret%03d" i))
              ~src:0xD1Al ~timestamp:1l)
      in
      Realize.epic ~hops ~src_id:0xD1Al ~timestamp:1l ~hop_keys
        ~src:(v4 "192.0.2.7") ~dst:(v4 "10.9.0.42") ~payload:demo ()

let router_keys proto =
  match proto with
  | Dip32 -> [ Opkey.F_32_match; Opkey.F_source ]
  | Dip128 -> [ Opkey.F_128_match; Opkey.F_source ]
  | Ndn -> [ Opkey.F_fib ]
  | Opt -> [ Opkey.F_parm; Opkey.F_mac; Opkey.F_mark ]
  | Ndn_opt -> [ Opkey.F_pit; Opkey.F_parm; Opkey.F_mac; Opkey.F_mark ]
  | Xia -> [ Opkey.F_dag; Opkey.F_intent ]
  | Epic -> [ Opkey.F_hvf; Opkey.F_32_match; Opkey.F_source ]

(* --- catalog --- *)

let catalog () =
  let t =
    Dip_stdext.Tabular.create
      ~aligns:[ Dip_stdext.Tabular.Right; Dip_stdext.Tabular.Left;
                Dip_stdext.Tabular.Left; Dip_stdext.Tabular.Left ]
      [ "key"; "notation"; "operation"; "scope" ]
  in
  List.iter
    (fun k ->
      Dip_stdext.Tabular.add_row t
        [
          string_of_int (Opkey.to_int k);
          Opkey.name k;
          Opkey.description k;
          (if Engine.mandatory k then "all on-path ASes" else "per-AS");
        ])
    Opkey.all;
  Dip_stdext.Tabular.print t;
  0

(* --- inspect --- *)

let inspect proto hops =
  let pkt = sample_packet ~hops proto in
  (match Packet.parse pkt with
  | Error e ->
      Printf.eprintf "parse error: %s\n" e;
      exit 1
  | Ok view ->
      Format.printf "%a@." Header.pp view.Packet.header;
      Array.iteri
        (fun i fn ->
          Format.printf "  FN %d: %a  %s@." (i + 1) Fn.pp fn (Opkey.name fn.Fn.key))
        view.Packet.fns;
      Printf.printf "  locations: %d bytes at offset %d\n"
        view.Packet.header.Header.fn_loc_len view.Packet.loc_base;
      Printf.printf "  payload:   %d bytes\n\n"
        (String.length (Packet.payload view)));
  Format.printf "%a" Bitbuf.pp pkt;
  0

(* --- demo / trace: the shared router chain --- *)

let chain_name = Name.of_string "/hotnets.org/dip"

(* One router of the demo chain, able to forward every protocol the
   sample packets realize: IPv4/IPv6 routes, an NDN FIB entry, an OPT
   identity matching its hop position, and an XIA route. *)
let mk_chain_router ?(no_cache = false) i =
  let env =
    Env.create
      ~prog_cache_capacity:(if no_cache then 0 else 512)
      ~name:(Printf.sprintf "r%d" (i + 1)) ()
  in
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
  Dip_ip.Ipv6.add_route env.Env.v6_routes
    (Ipaddr.Prefix.of_string "2001:db8::/32") 1;
  Dip_tables.Name_fib.insert env.Env.fib chain_name 1;
  Env.set_opt_identity env
    ~secret:(Dip_opt.Drkey.secret_of_string (Printf.sprintf "router-secret%03d" i))
    ~hop:(i + 1);
  Dip_xia.Router.add_route env.Env.xia (Dip_xia.Xid.of_name Dip_xia.Xid.AD "as1") 1;
  env

(* NDN+OPT data packets follow PIT state left by a previous interest,
   which the chain pre-installs. *)
let preinstall_pit proto routers =
  match proto with
  | Ndn_opt ->
      List.iter
        (fun env ->
          ignore
            (Dip_tables.Pit.insert env.Env.pit
               ~key:(Name.hash32 chain_name) ~port:1 ~now:0.0 ~lifetime:1e9))
        routers
  | Dip32 | Dip128 | Ndn | Opt | Xia | Epic -> ()

(* The chain that demo, profile and trace run: each [(name, handler)]
   router's port 1 is wired to the next one's port 0, and the last
   router's to a sink that consumes everything. [wrap] sees every
   node's handler, the sink's included. Returns the routers' node
   ids, first router first, and the sink's delivery count. *)
let chain ?(wrap = fun ~name:_ h -> h) sim routers =
  let add (name, h) = Dip_netsim.Sim.add_node sim ~name (wrap ~name h) in
  let ids = List.map add routers in
  let consumed = ref 0 in
  let sink =
    add
      ( "sink",
        fun _ ~now:_ ~ingress:_ _ ->
          incr consumed;
          [ Dip_netsim.Sim.Consume ] )
  in
  List.iter2
    (fun a b -> Dip_netsim.Sim.connect sim (a, 1) (b, 0))
    ids
    (List.tl ids @ [ sink ]);
  (ids, consumed)

(* A chain router served by a worker pool. The batched run loop hands
   every arrival at it to the pool; the handler only runs for
   arrivals the loop does not batch (none in the chain, but the
   simulator requires one), as a one-item batch. *)
let pool_router i pool =
  ( Printf.sprintf "r%d" (i + 1),
    fun _sim ~now ~ingress pkt ->
      (Dip_mcore.Pool.handle_batch pool [| { Dip_mcore.Pool.now; ingress; pkt } |]).(0) )

(* --- demo --- *)

type metrics_fmt = Fmt_table | Fmt_json | Fmt_prom

let metrics_conv =
  let parse = function
    | "table" -> Ok Fmt_table
    | "json" -> Ok Fmt_json
    | "prom" | "prometheus" -> Ok Fmt_prom
    | s -> Error (`Msg (Printf.sprintf "unknown metrics format %S" s))
  in
  let print fmt f =
    Format.pp_print_string fmt
      (match f with Fmt_table -> "table" | Fmt_json -> "json" | Fmt_prom -> "prom")
  in
  Arg.conv (parse, print)

let export_metrics fmt m =
  print_string
    (match fmt with
    | Fmt_table -> Dip_obs.Export.table m
    | Fmt_json -> Dip_obs.Export.json_lines m
    | Fmt_prom -> Dip_obs.Export.prometheus m)

(* --- flight-recorder output --- *)

let write_flight ~path ~text ~pid_names events =
  let oc = open_out path in
  output_string oc
    (if text then Dip_obs.Export.timeline events
     else Dip_obs.Export.chrome_trace ~pid_names events);
  close_out oc;
  Printf.printf "flight trace: %d event(s) -> %s%s\n" (List.length events) path
    (if text then "" else " (load in Perfetto or about://tracing)")

let print_timeline_summary label (s : Dip_mcore.Pool.summary) =
  let module T = Dip_stdext.Tabular in
  let t =
    T.create
      ~aligns:[ T.Left; T.Right; T.Right; T.Right; T.Right ]
      [ "lane"; "count"; "mean us"; "p99 us"; "max us" ]
  in
  let row name (st : Dip_mcore.Pool.lane_stat) =
    T.add_row t
      [
        name;
        string_of_int st.count;
        Printf.sprintf "%.2f" (st.mean_ns /. 1e3);
        Printf.sprintf "%.2f" (float_of_int st.p99_ns /. 1e3);
        Printf.sprintf "%.2f" (float_of_int st.max_ns /. 1e3);
      ]
  in
  row "dispatch" s.Dip_mcore.Pool.dispatch;
  row
    (Printf.sprintf "await (%d blocked)" s.Dip_mcore.Pool.await_blocked)
    s.Dip_mcore.Pool.await;
  List.iter
    (fun (l : Dip_mcore.Pool.lane) ->
      row (Printf.sprintf "w%d queue-wait" l.worker) l.queue_wait;
      row (Printf.sprintf "w%d execute" l.worker) l.execute)
    s.Dip_mcore.Pool.lanes;
  Printf.printf "%s hand-off timeline (flight recorder):\n" label;
  T.print t

(* The --domains variant: each chain router becomes a Dip_mcore pool
   of worker domains, fed through the simulator's batched run loop.
   Injections are packed microseconds apart (instead of the
   sequential demo's 1 s) so arrivals actually batch; delivery counts
   are identical whatever the domain count (Sim.run_batched applies
   results in arrival order). *)
let demo_parallel proto n count no_cache metrics domains flight =
  let sim = Dip_netsim.Sim.create () in
  (* The recorder is armed for --flight, and also for --metrics=table
     because the table surfaces the hand-off latency summary, which is
     digested from flight events. *)
  let with_flight = flight <> None || metrics = Some Fmt_table in
  let sim_ring =
    if with_flight then Some (Dip_obs.Flight.create ~pid:0 ~tid:0 ()) else None
  in
  Dip_netsim.Sim.set_flight sim sim_ring;
  let mk_env i _w =
    let env = mk_chain_router ~no_cache i in
    preinstall_pit proto [ env ];
    env
  in
  let pools =
    List.init n (fun i ->
        Dip_mcore.Pool.create ~domains
          ~metrics:(metrics <> None)
          ?flight:(if with_flight then Some (i + 1) else None)
          (Dip_mcore.Snapshot.v ~registry ~mk_env:(mk_env i) ()))
  in
  let ids, sink_consumed = chain sim (List.mapi pool_router pools) in
  for k = 0 to count - 1 do
    Dip_netsim.Sim.inject sim ~at:(float_of_int k *. 1e-6) ~node:(List.hd ids)
      ~port:0
      (sample_packet ~hops:n proto)
  done;
  Dip_mcore.Runner.run_parallel ~window:16e-6 sim
    ~pools:(List.combine ids pools);
  Printf.printf
    "chain of %d DIP router(s), %d worker domain(s) each: %d/%d packet(s) \
     reached the sink\n"
    n domains !sink_consumed count;
  List.iter
    (fun (k, v) -> Printf.printf "  %-28s %d\n" k v)
    (Dip_netsim.Stats.Counters.to_list (Dip_netsim.Sim.counters sim));
  if no_cache then print_endline "program cache: disabled (--no-program-cache)"
  else
    List.iteri
      (fun i pool ->
        let c = Dip_mcore.Pool.counters pool in
        Printf.printf
          "  r%d program cache (%d worker envs): %d hit(s), %d miss(es)\n"
          (i + 1) domains
          (Dip_netsim.Stats.Counters.get c "progcache.hit")
          (Dip_netsim.Stats.Counters.get c "progcache.miss"))
      pools;
  (match metrics with
  | Some fmt ->
      let m = Dip_obs.Metrics.create () in
      Dip_obs.Metrics.absorb m (Dip_netsim.Sim.counters sim);
      List.iter
        (fun pool ->
          Dip_obs.Metrics.absorb m (Dip_mcore.Pool.counters pool);
          Option.iter (Dip_obs.Metrics.absorb m) (Dip_mcore.Pool.metrics pool))
        pools;
      print_newline ();
      export_metrics fmt m;
      if fmt = Fmt_table then
        List.iteri
          (fun i pool ->
            match Dip_mcore.Pool.timeline_summary pool with
            | Some s ->
                print_newline ();
                print_timeline_summary (Printf.sprintf "r%d" (i + 1)) s
            | None -> ())
          pools
  | None -> ());
  (match flight with
  | Some path ->
      let rings =
        Option.to_list sim_ring
        @ List.concat_map Dip_mcore.Pool.flight_rings pools
      in
      let pid_names =
        (0, "sim")
        :: List.mapi (fun i _ -> (i + 1, Printf.sprintf "r%d" (i + 1))) pools
      in
      write_flight ~path ~text:false ~pid_names (Dip_obs.Flight.merge rings)
  | None -> ());
  List.iter Dip_mcore.Pool.shutdown pools;
  0

let demo proto n count no_cache metrics domains flight =
  if n < 1 then begin
    Printf.eprintf "need at least one router\n";
    exit 1
  end;
  if count < 1 then begin
    Printf.eprintf "need at least one packet\n";
    exit 1
  end;
  if domains < 1 then begin
    Printf.eprintf "need at least one domain\n";
    exit 1
  end;
  if domains > 1 then demo_parallel proto n count no_cache metrics domains flight
  else begin
  let sim = Dip_netsim.Sim.create () in
  (* Everything runs on this domain, so one ring carries the whole
     trace. *)
  let ring =
    match flight with
    | None -> None
    | Some _ -> Some (Dip_obs.Flight.create ~pid:0 ~tid:0 ())
  in
  Dip_netsim.Sim.set_flight sim ring;
  (* With --metrics, every router reports through one shared Obs (so
     per-opkey counters aggregate across the chain), and the export
     absorbs the simulator's registry and every router's own dip.* and
     progcache.* counters. sample_every:1 because a short demo run
     wants every packet timed. *)
  let m =
    match (metrics, ring) with
    | None, None -> None
    | _ -> Some (Dip_obs.Metrics.create ())
  in
  let obs = Option.map (Obs.create ~sample_every:1 ?flight:ring) m in
  let mk_router i =
    let env = mk_chain_router ~no_cache i in
    Progcache.set_flight env.Env.prog_cache ring;
    env
  in
  let routers = List.init n mk_router in
  (* OPT alone carries no forwarding FN (the paper pairs it with a
     path-aware substrate); the demo composes it with DIP-32
     forwarding. *)
  preinstall_pit proto routers;
  let ids, sink_consumed =
    chain sim
      (List.map
         (fun env -> (env.Env.name, Engine.handler ?obs ~registry env))
         routers)
  in
  (* EPIC hop indices follow the chain: router i is hop i+1, which
     matches how mk_router assigns opt_hop. The engine mutates
     packets in flight, so each injection builds a fresh one — which
     is also what exercises the program cache (same FN program, new
     packet: hit). *)
  for k = 0 to count - 1 do
    Dip_netsim.Sim.inject sim ~at:(float_of_int k) ~node:(List.hd ids) ~port:0
      (sample_packet ~hops:n proto)
  done;
  Dip_netsim.Sim.run sim;
  Printf.printf "chain of %d DIP router(s): %d/%d packet(s) reached the sink\n" n
    !sink_consumed count;
  List.iter
    (fun (k, v) -> Printf.printf "  %-28s %d\n" k v)
    (Dip_netsim.Stats.Counters.to_list (Dip_netsim.Sim.counters sim));
  if no_cache then print_endline "program cache: disabled (--no-program-cache)"
  else
    List.iter
      (fun env ->
        Printf.printf "  %s program cache: %d hit(s), %d miss(es)\n"
          env.Env.name
          (Dip_netsim.Stats.Counters.get env.Env.counters "progcache.hit")
          (Dip_netsim.Stats.Counters.get env.Env.counters "progcache.miss"))
      routers;
  (match (metrics, m) with
  | Some fmt, Some m ->
      Dip_obs.Metrics.absorb m (Dip_netsim.Sim.counters sim);
      List.iter (fun env -> Dip_obs.Metrics.absorb m env.Env.counters) routers;
      print_newline ();
      export_metrics fmt m
  | _ -> ());
  (match (flight, ring) with
  | Some path, Some r ->
      write_flight ~path ~text:false
        ~pid_names:[ (0, "chain") ]
        (Dip_obs.Flight.events r)
  | _ -> ());
  0
  end

(* --- trace --- *)

module Trace = Dip_netsim.Trace

(* One packet through the chain, observed from both sides at once:
   the host-side Trace records what each node did with it, and (for
   -p ipv4, which composes with F_tel) the routers stamp in-band
   telemetry records that the sink reads back out of the packet. The
   two views are merged on the time axis — the in-band timestamp is
   the engine's [now] in whole microseconds, so with the default
   1 us link latency each record lands beside its hop's reception. *)
let trace proto n =
  if n < 1 then begin
    Printf.eprintf "need at least one router\n";
    exit 1
  end;
  let sim = Dip_netsim.Sim.create () in
  let delivered = ref [] in
  Dip_netsim.Sim.on_consume sim (fun node time pkt -> delivered := (node, time, pkt) :: !delivered);
  (* The engine rewrites the packet in flight (hop limit, telemetry
     appends), so the default CRC fingerprint would change per hop;
     there is only one packet, give it a constant identity. *)
  let tr = Trace.attach ~fingerprint:(fun _ -> 1l) sim in
  let routers = List.init n (fun i -> mk_chain_router i) in
  preinstall_pit proto routers;
  let ids, _ =
    chain ~wrap:(Trace.wrap tr) sim
      (List.map (fun env -> (env.Env.name, Engine.handler ~registry env)) routers)
  in
  (* Telemetry identity needs the node ids: router i reports node_id
     i+1 and its live egress-queue depth. *)
  List.iteri
    (fun i env ->
      let node = List.nth ids i in
      Env.set_telemetry_identity env ~node_id:(i + 1)
        ~queue_depth:(fun () -> Dip_netsim.Sim.queue_depth sim node 1))
    routers;
  let telemetry = proto = Dip32 in
  let pkt =
    if telemetry then
      Realize.ipv4_telemetry ~max_hops:n ~src:(v4 "192.0.2.7")
        ~dst:(v4 "10.9.0.42") ~payload:"trace" ()
    else sample_packet ~hops:n proto
  in
  Dip_netsim.Sim.inject sim ~at:0.0 ~node:(List.hd ids) ~port:0 pkt;
  Dip_netsim.Sim.run sim;
  let host_lines =
    List.map
      (fun e ->
        ( e.Trace.time,
          e.Trace.node,
          match e.Trace.kind with
          | Trace.Received p -> Printf.sprintf "received on port %d" p
          | Trace.Consumed -> "consumed"
          | Trace.Dropped reason -> Printf.sprintf "dropped (%s)" reason ))
      (Trace.journey tr 1l)
  in
  let inband_lines =
    if not telemetry then []
    else
      match
        List.find_map
          (fun (_, _, p) ->
            match Packet.parse p with
            | Ok view ->
                Some
                  (Telemetry.read p ~base:view.Packet.loc_base
                     ~region_bytes:(Telemetry.region_size ~max_hops:n))
            | Error _ -> None)
          (List.rev !delivered)
      with
      | None -> []
      | Some (records, overflow) ->
          if overflow then
            print_endline "note: in-band telemetry region overflowed";
          List.map
            (fun r ->
              ( Int32.to_float r.Telemetry.timestamp /. 1e6,
                Printf.sprintf "r%d" r.Telemetry.node_id,
                Printf.sprintf "[in-band] F_tel: node %d, queue depth %d"
                  r.Telemetry.node_id r.Telemetry.queue_depth ))
            records
  in
  (* Host events sort before same-instant in-band records (stable
     sort, hosts listed first) — reception, then the stamp it made. *)
  let merged =
    List.stable_sort
      (fun (a, _, _) (b, _, _) -> Float.compare a b)
      (host_lines @ inband_lines)
  in
  Printf.printf "packet journey through %d router(s)%s:\n" n
    (if telemetry then " (host-side trace + in-band F_tel records)" else "");
  List.iter
    (fun (t, node, what) -> Printf.printf "  %9.6fs  %-5s %s\n" t node what)
    merged;
  if telemetry then
    Printf.printf "\n%d in-band record(s) read back at the sink for %d hop(s)\n"
      (List.length inband_lines) n
  else
    print_endline
      "\n(no in-band records: F_tel composes with -p ipv4; other protocols \
       show the host-side trace only)";
  0

(* --- estimate --- *)

let estimate proto parallel =
  let keys = router_keys proto in
  let pkt = sample_packet proto in
  let header_bytes =
    match Packet.header_size pkt with Ok n -> n | Error _ -> 0
  in
  List.iter
    (fun (label, alg) ->
      let e =
        Dip_pisa.Cost.estimate Dip_pisa.Cost.tofino_like ~alg ~parallel
          ~header_bytes keys
      in
      Printf.printf "%-8s passes=%d stages=%d time=%.0f ns\n" label
        e.Dip_pisa.Cost.passes e.Dip_pisa.Cost.stages_used e.Dip_pisa.Cost.time_ns)
    [ ("2EM:", Dip_opt.Protocol.EM2); ("AES:", Dip_opt.Protocol.AES) ];
  0

(* --- lint: static FN-program verification --- *)

(* The six §3 realizations — the programs `dip lint` must accept with
   zero diagnostics. *)
let section3_targets ~hops =
  let dest_key = String.make 16 'k' in
  let name = Name.of_string "/hotnets.org/dip" in
  [
    ( "ipv4 (DIP-32)",
      Realize.ipv4 ~src:(v4 "192.0.2.7") ~dst:(v4 "10.9.0.42") ~payload:"demo" () );
    ( "ipv6 (DIP-128)",
      Realize.ipv6 ~src:(v6 "2001:db8::1") ~dst:(v6 "2001:db8::42")
        ~payload:"demo" () );
    ("ndn interest", Realize.ndn_interest ~name ~payload:"" ());
    ("ndn data", Realize.ndn_data ~name ~content:"demo" ());
    ( "opt",
      Realize.opt ~hops ~session_id:0xD1AL ~timestamp:1l ~dest_key
        ~payload:"demo" () );
    ("ndn+opt interest", Realize.ndn_opt_interest ~name ~payload:"" ());
    ( "ndn+opt data",
      Realize.ndn_opt_data ~hops ~session_id:0xD1AL ~timestamp:1l ~dest_key
        ~name ~content:"demo" () );
    ( "xia",
      let open Dip_xia in
      Realize.xia
        ~dag:
          (Dag.fallback
             ~intent:(Xid.of_name Xid.SID "svc")
             ~via:[ Xid.of_name Xid.AD "as1"; Xid.of_name Xid.HID "h1" ])
        ~payload:"demo" () );
  ]

(* This repo's documented extensions (keys 12-15), as the examples
   construct them. *)
let extension_targets ~hops =
  let name = Name.of_string "/hotnets.org/dip" in
  [
    ( "ndn interest + F_pass",
      Realize.ndn_interest ~pass:Dip_crypto.Siphash.default_key ~name
        ~payload:"" () );
    ( "netfence",
      Realize.netfence ~src:(v4 "192.0.2.7") ~dst:(v4 "10.9.0.42") ~sender:7l
        ~rate:1e6 ~timestamp:1l ~payload:"demo" () );
    ( "ipv4 + telemetry",
      Realize.ipv4_telemetry ~max_hops:8 ~src:(v4 "192.0.2.7")
        ~dst:(v4 "10.9.0.42") ~payload:"demo" () );
    ("epic", sample_packet ~hops Epic);
  ]

let targets_of_proto ~hops proto =
  let all = section3_targets ~hops @ extension_targets ~hops in
  let pick labels = List.filter (fun (l, _) -> List.mem l labels) all in
  match proto with
  | Dip32 -> pick [ "ipv4 (DIP-32)" ]
  | Dip128 -> pick [ "ipv6 (DIP-128)" ]
  | Ndn -> pick [ "ndn interest"; "ndn data" ]
  | Opt -> pick [ "opt" ]
  | Ndn_opt -> pick [ "ndn+opt interest"; "ndn+opt data" ]
  | Xia -> pick [ "xia" ]
  | Epic -> pick [ "epic" ]

(* --- sizes --- *)

(* Table 2: each realization's header against the paper's byte
   count. *)
let sizes () =
  let module T = Dip_stdext.Tabular in
  let t =
    T.create
      ~aligns:[ T.Left; T.Right; T.Right; T.Left ]
      [ "network function"; "paper (B)"; "ours (B)"; "match" ]
  in
  List.iter
    (fun (p, paper) ->
      let ours = Realize.header_overhead p in
      T.add_row t
        [
          Realize.protocol_name p;
          string_of_int paper;
          string_of_int ours;
          (if ours = paper then "exact" else "MISMATCH");
        ])
    [
      (Realize.P_ipv6_native, 40); (Realize.P_ipv4_native, 20);
      (Realize.P_dip128, 50); (Realize.P_dip32, 26); (Realize.P_ndn, 16);
      (Realize.P_opt, 98); (Realize.P_ndn_opt, 108);
    ];
  T.print t;
  0

(* --- figure2 --- *)

(* One row of Figure 2: [hop] runs one forwarding step on the row's
   router and returns [None] when the packet was forwarded, the drop
   reason otherwise; [packet] builds the row's packet around a
   payload; [restore ~pristine pkt] undoes what a hop wrote, into the
   packet (from its unprocessed copy) or into the router's state, so
   that every timed hop does the same work. *)
type fig2_row = {
  label : string;
  hop : Bitbuf.t -> string option;
  packet : string -> Bitbuf.t;
  restore : pristine:Bitbuf.t -> Bitbuf.t -> unit;
}

let engine_hop env pkt =
  match fst (Engine.process ~registry env ~now:0.0 ~ingress:0 pkt) with
  | Engine.Forwarded _ -> None
  | Engine.Dropped reason -> Some reason
  | _ -> Some "not forwarded"

let hop_limit ~pristine:_ pkt = Bitbuf.set_uint8 pkt 2 64

(* A row of [mk_chain_router 0], which routes, names and keys every
   sample packet, unless [env] is given. *)
let dip_row ?(env = mk_chain_router 0) ?(restore = fun _ -> hop_limit) label
    packet =
  { label; hop = engine_hop env; packet; restore = restore env }

let pit_key = Name.hash32 chain_name

let figure2_rows () =
  let sample proto payload = sample_packet ~payload proto in
  let loc_base pkt = (Result.get_ok (Packet.parse pkt)).Packet.loc_base in
  let with_env setup =
    let env = mk_chain_router 0 in
    setup env;
    env
  in
  let table4 = Dip_tables.Fib.V4.create () and table6 = Dip_tables.Fib.V6.create () in
  Dip_ip.Ipv4.add_route table4 (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
  Dip_ip.Ipv6.add_route table6 (Ipaddr.Prefix.of_string "2001:db8::/32") 1;
  let native = function
    | Dip_ip.Ipv4.Forward _ -> None
    | Dip_ip.Ipv4.Deliver -> Some "delivered"
    | Dip_ip.Ipv4.Discard reason -> Some reason
  in
  let native6 = function
    | Dip_ip.Ipv6.Forward _ -> None
    | Dip_ip.Ipv6.Deliver -> Some "delivered"
    | Dip_ip.Ipv6.Discard reason -> Some reason
  in
  (* NDN interests leave a PIT entry, NDN+OPT data consumes one. *)
  let pit_consumed env ~pristine pkt =
    hop_limit ~pristine pkt;
    ignore (Dip_tables.Pit.consume env.Env.pit ~key:pit_key ~now:0.0)
  and pit_pending env ~pristine pkt =
    hop_limit ~pristine pkt;
    ignore
      (Dip_tables.Pit.insert env.Env.pit ~key:pit_key ~port:1 ~now:0.0
         ~lifetime:1e9)
  in
  let opt_base = loc_base (sample_packet Opt) and key = String.make 16 'k' in
  let opt_update label alg =
    {
      label;
      hop =
        (fun pkt ->
          Dip_opt.Protocol.router_update ~alg pkt ~base:opt_base ~hop:1 ~key;
          None);
      packet = sample Opt;
      restore = (fun ~pristine:_ _ -> ());
    }
  in
  let netfence payload =
    Realize.netfence ~src:(v4 "192.0.2.7") ~dst:(v4 "10.9.0.42") ~sender:5l
      ~rate:1e9 ~timestamp:0l ~payload ()
  in
  let telemetry payload =
    Realize.ipv4_telemetry ~max_hops:8 ~src:(v4 "192.0.2.7")
      ~dst:(v4 "10.9.0.42") ~payload ()
  in
  let tel_base = loc_base (telemetry "") and epic_base = loc_base (sample_packet Epic) in
  let pass = Dip_crypto.Siphash.default_key in
  [
    {
      label = "IPv4 (native baseline)";
      hop = (fun pkt -> native (Dip_ip.Ipv4.forward table4 pkt));
      packet =
        (fun payload ->
          Dip_ip.Ipv4.encode
            { Dip_ip.Ipv4.src = v4 "192.0.2.7"; dst = v4 "10.9.0.42"; ttl = 64;
              protocol = 17; payload_len = String.length payload }
            ~payload);
      restore =
        (fun ~pristine pkt ->
          Bitbuf.set_uint16 pkt 8 (Bitbuf.get_uint16 pristine 8);
          Bitbuf.set_uint16 pkt 10 (Bitbuf.get_uint16 pristine 10));
    };
    {
      label = "IPv6 (native baseline)";
      hop = (fun pkt -> native6 (Dip_ip.Ipv6.forward table6 pkt));
      packet =
        (fun payload ->
          Dip_ip.Ipv6.encode
            { Dip_ip.Ipv6.src = v6 "2001:db8::1"; dst = v6 "2001:db8::42";
              hop_limit = 64; next_header = 17;
              payload_len = String.length payload }
            ~payload);
      restore = (fun ~pristine:_ pkt -> Bitbuf.set_uint8 pkt 7 64);
    };
    dip_row "DIP-32 (IP)" (sample Dip32);
    dip_row "DIP-128 (IP)" (sample Dip128);
    dip_row ~restore:pit_consumed "DIP NDN" (sample Ndn);
    (* Realize.opt carries no forwarding FN, so a router drops it
       ("no-forwarding-decision"); the row is OPT over DIP-32, as
       `dip inspect -p opt` builds it. *)
    dip_row "DIP OPT (+DIP-32)" (sample Opt);
    dip_row ~restore:pit_pending "DIP NDN+OPT" (sample Ndn_opt);
    (* Ablations. A1: every packet cold-parsed. *)
    dip_row ~env:(mk_chain_router ~no_cache:true 0) "A1 DIP-32, cache off"
      (sample Dip32);
    dip_row ~env:(mk_chain_router ~no_cache:true 0) "A1 OPT, cache off"
      (sample Opt);
    (* A2: OPT's router update alone, under each cipher. *)
    opt_update "A2 OPT update, 2EM" Dip_opt.Protocol.EM2;
    opt_update "A2 OPT update, AES" Dip_opt.Protocol.AES;
    (* A4: F_pass verification switched on. *)
    dip_row
      ~env:(with_env (fun env -> Env.enable_pass env ~key:pass))
      ~restore:pit_consumed "A4 NDN + F_pass"
      (fun payload -> Realize.ndn_interest ~pass ~name:chain_name ~payload ());
    (* A6: NetFence through a transit router and a bottleneck. *)
    dip_row "A6 NetFence, transit" netfence;
    dip_row
      ~env:
        (with_env (fun env ->
             Env.set_netfence env
               (Dip_netfence.Policer.create
                  ~key:(Dip_crypto.Prf.key_of_string "bottleneck-key-1") ())))
      "A6 NetFence, bottleneck" netfence;
    (* A7: each hop appends a record; the count goes back to 0. *)
    dip_row
      ~env:
        (with_env (fun env ->
             Env.set_telemetry_identity env ~node_id:3 ~queue_depth:(fun () -> 12)))
      ~restore:(fun _ ~pristine pkt ->
        hop_limit ~pristine pkt;
        Bitbuf.set_uint8 pkt tel_base 0)
      "A7 DIP-32 + telemetry" telemetry;
    (* A8: the router replaces the HVF; the source's goes back. *)
    dip_row
      ~restore:(fun _ ~pristine pkt ->
        hop_limit ~pristine pkt;
        Dip_epic.Header.set_hvf pkt ~base:epic_base 1
          (Dip_epic.Header.get_hvf pristine ~base:epic_base 1))
      "A8 EPIC (+DIP-32)" (sample Epic);
  ]

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* "median (min-max)" of [a], to [digits] decimals. *)
let spread ?(unit = "") digits a =
  Printf.sprintf "%.*f%s (%.*f-%.*f)" digits (median a) unit digits
    (Array.fold_left Float.min infinity a)
    digits
    (Array.fold_left Float.max neg_infinity a)

(* Figure 2: ns per hop for every row at the paper's packet sizes,
   timed in [rounds] interleaved rounds, each cell one batch of hops
   sized to ~5 ms; a cell is the median (min-max) over the rounds. *)
let figure2 () =
  let rounds = 8 and batch_ns = 5_000_000 in
  let sizes = Array.of_list Dip_netsim.Workload.paper_packet_sizes in
  let rows = Array.of_list (figure2_rows ()) in
  let time_hops row pkt ~pristine n =
    let t0 = Dip_obs.Clock.now_ns () in
    for _ = 1 to n do
      row.restore ~pristine pkt;
      ignore (Sys.opaque_identity (row.hop pkt))
    done;
    float_of_int (Dip_obs.Clock.elapsed_ns t0) /. float_of_int n
  in
  (* Each cell's packet, padded to its size, checked once to be
     forwarded, and its batch length from a 1000-hop warm-up. *)
  let cells =
    Array.map
      (fun row ->
        Array.map
          (fun size ->
            let header = Bitbuf.length (row.packet "") in
            let pkt = row.packet (String.make (size - header) 'x') in
            let pristine = Bitbuf.copy pkt in
            row.restore ~pristine pkt;
            (match row.hop pkt with
            | None -> ()
            | Some reason ->
                Printf.eprintf "figure2: %s at %d B is not forwarded (%s)\n"
                  row.label size reason;
                exit 1);
            let ns = time_hops row pkt ~pristine 1000 in
            (pkt, pristine, max 1000 (int_of_float (float_of_int batch_ns /. ns))))
          sizes)
      rows
  in
  let ns = Array.map (Array.map (fun _ -> Array.make rounds 0.0)) cells in
  for r = 0 to rounds - 1 do
    Array.iteri
      (fun i row ->
        Array.iteri
          (fun j (pkt, pristine, n) -> ns.(i).(j).(r) <- time_hops row pkt ~pristine n)
          cells.(i))
      rows
  done;
  let module T = Dip_stdext.Tabular in
  let t =
    T.create
      ~aligns:(T.Left :: Array.to_list (Array.map (fun _ -> T.Right) sizes))
      ("ns/packet \\ size" :: Array.to_list (Array.map (Printf.sprintf "%d B") sizes))
  in
  Array.iteri
    (fun i row -> T.add_row t (row.label :: Array.to_list (Array.map (spread 0) ns.(i))))
    rows;
  Printf.printf
    "Figure 2: packet processing time, median (min-max) of %d interleaved rounds\n"
    rounds;
  T.print t;
  (* A ratio per round, of the rows' ns summed over the sizes. *)
  let index label =
    let rec go i = if rows.(i).label = label then i else go (i + 1) in
    go 0
  in
  let total i r = Array.fold_left (fun acc cell -> acc +. cell.(r)) 0.0 ns.(i) in
  print_endline "\nratios, median (min-max) of the per-round ratios (paper §4.2):";
  List.iter
    (fun (a, b, claim) ->
      let ia = index a and ib = index b in
      let per_round = Array.init rounds (fun r -> total ia r /. total ib r) in
      Printf.printf "  %-24s / %-22s %s  (paper: %s)\n" a b
        (spread ~unit:"x" 2 per_round) claim)
    [
      ("DIP-32 (IP)", "IPv4 (native baseline)", "close to baseline");
      ("DIP-128 (IP)", "IPv6 (native baseline)", "close to baseline");
      ("DIP OPT (+DIP-32)", "DIP-32 (IP)", "more, MACs are expensive");
      ("DIP NDN", "DIP-32 (IP)", "close to IP");
      ("DIP NDN+OPT", "DIP NDN", "more, MACs are expensive");
    ];
  print_endline
    "\nA3 is `dip estimate --parallel`, A5 perfbench's fib1m. Efficacy: A4 is\n\
     test_core f-pass \"rejects forged\", A6 test_netfence f-cc \"drops flood\",\n\
     A8 test_epic engine \"drops forged at router\".";
  0

(* Canned reachability models. {!Dip_analysis.Reach} only needs the
   topology for its node count; forwarding structure lives in the
   per-node route tables, keyed on the packet's concrete match-field
   bytes. *)

module Reach = Dip_analysis.Reach
module Report = Dip_analysis.Report

let reach_node ?reg routes =
  {
    Reach.n_registry = Some (Option.value reg ~default:registry);
    n_routes = routes;
    n_local = [];
  }

(* A delivery chain: src router 0, hops-1 more routers, host dst. *)
let chain_config ~hops v =
  {
    Reach.c_topology = Dip_netsim.Topology.linear (hops + 1);
    c_node = (fun i -> reach_node (if i < hops then [ (v, i + 1) ] else []));
    c_src = 0;
    c_dst = hops;
  }

(* Static routes that cycle 0→1→2→0 while dst 3 is never entered. *)
let ring_config v =
  {
    Reach.c_topology = Dip_netsim.Topology.linear 4;
    c_node =
      (fun i ->
        reach_node
          (match i with
          | 0 -> [ (v, 1) ]
          | 1 -> [ (v, 2) ]
          | 2 -> [ (v, 0) ]
          | _ -> []));
    c_src = 0;
    c_dst = 3;
  }

(* Node 1 simply has no route for the match value. *)
let cut_config v =
  {
    Reach.c_topology = Dip_netsim.Topology.linear 3;
    c_node = (fun i -> reach_node (if i = 0 then [ (v, 1) ] else []));
    c_src = 0;
    c_dst = 2;
  }

(* A diamond 0→1→{2,3}: node 1 only fans out to node 2 for packets
   whose match value an FN has rewritten (the unknown-value fanout),
   and node 2 lacks a mandatory key. The shortest path 0→1→3 is
   clean, which is exactly why check_deployment misses the gap. *)
let diamond_config v =
  let gapped =
    Registry.restrict registry
      (List.filter (fun k -> k <> Opkey.F_hvf) (Registry.supported registry))
  in
  {
    Reach.c_topology = Dip_netsim.Topology.linear 4;
    c_node =
      (fun i ->
        match i with
        | 0 -> reach_node [ (v, 1) ]
        | 1 -> reach_node [ (v, 3); ("\xff off-path", 2) ]
        | 2 -> reach_node ~reg:gapped [ (v, 3) ]
        | _ -> reach_node []);
    c_src = 0;
    c_dst = 3;
  }

(* Reachability diagnostics for a lint target over an [hops]-router
   chain. Targets without a forwarding FN carry no match value to
   route on, so there is nothing to propagate. *)
let chain_reach_diags ~hops pkt =
  match Packet.parse pkt with
  | Error _ -> []
  | Ok view -> (
      match Reach.match_value view with
      | None -> []
      | Some v -> Reach.check_view (chain_config ~hops v) view)

(* --deep: show the abstract execution both sides of the engine would
   perform — resolved reads/writes, the dependence edges the analyzer
   actually proved, and the match value the forwarding decision sees. *)
let print_deep pkt =
  match Packet.parse pkt with
  | Error _ -> ()
  | Ok view ->
      let module Absint = Dip_analysis.Absint in
      let module Field = Dip_bitbuf.Field in
      let region_bits = 8 * view.Packet.header.Header.fn_loc_len in
      let bytes =
        if region_bits = 0 then None
        else
          Some
            (Bitbuf.get_field view.Packet.buf
               (Dip_bitbuf.Field.v
                  ~off_bits:(8 * view.Packet.loc_base)
                  ~len_bits:region_bits))
      in
      let program = List.mapi (fun i fn -> (i, fn)) (Array.to_list view.Packet.fns) in
      let span (f : Field.t) =
        Printf.sprintf "%d..%d" f.Field.off_bits (Field.last_bit f)
      in
      let value_name = function
        | Absint.Bytes _ -> "exact"
        | Absint.Abs (k, []) -> Absint.kind_name k
        | Absint.Abs (k, ws) ->
            Printf.sprintf "%s by FN %s" (Absint.kind_name k)
              (String.concat "/" (List.map (fun i -> string_of_int (i + 1)) ws))
      in
      List.iter
        (fun (side, name) ->
          let r = Absint.exec ~registry ?bytes ~side ~region_bits program in
          Printf.printf "  %s dataflow:\n" name;
          List.iter
            (fun (st : Absint.step) ->
              let fn = st.Absint.st_fn in
              if not st.Absint.st_ran then
                Printf.printf "    FN %-2d %-12s skipped (%s-tagged)\n"
                  (st.Absint.st_index + 1) (Opkey.name fn.Fn.key)
                  (match fn.Fn.tag with Fn.Router -> "router" | Fn.Host -> "host")
              else begin
                let reads =
                  (if st.Absint.st_reads_region then [ "region" ] else [])
                  @ List.map span st.Absint.st_reads
                in
                let writes =
                  List.map
                    (fun (f, k) ->
                      Printf.sprintf "%s:%s" (span f)
                        (match k with
                        | Registry.W_step -> "step"
                        | Registry.W_node -> "node"
                        | Registry.W_data -> "data"))
                    st.Absint.st_writes
                in
                let deps =
                  List.map
                    (fun i -> Printf.sprintf "FN %d" (i + 1))
                    st.Absint.st_read_writers
                  @ List.map
                      (fun (c, p) -> Printf.sprintf "scratch.%s←FN %d" c (p + 1))
                      st.Absint.st_scratch_deps
                in
                Printf.printf "    FN %-2d %-12s reads[%s] writes[%s]%s%s\n"
                  (st.Absint.st_index + 1) (Opkey.name fn.Fn.key)
                  (String.concat " " reads) (String.concat " " writes)
                  (match st.Absint.st_value with
                  | Some v
                    when (Registry.transfer fn.Fn.key).Registry.t_match ->
                      " match=" ^ value_name v
                  | _ -> "")
                  (if deps = [] then ""
                   else " deps{" ^ String.concat ", " deps ^ "}")
              end)
            r.Absint.steps)
        [ (Absint.Router, "router"); (Absint.Host, "host") ]

(* --- the defect corpus (--corpus / --emit-corpus) --- *)

(* Checked-in programs under test/corpus/: good/ must analyze with
   zero errors, bad/<check>--<name>.hex must produce at least one
   Error of the named class. Regenerate with
   `dip lint --emit-corpus test/corpus`. *)
let corpus_programs () =
  let region n = String.make n '\000' in
  let ipv4 =
    Realize.ipv4 ~src:(v4 "192.0.2.7") ~dst:(v4 "10.9.0.42") ~payload:"demo" ()
  in
  let bounds_bad =
    (* Packet.build refuses out-of-region targets, so forge one: grow
       the first FN's declared length past the region after the fact. *)
    let p =
      Packet.build
        ~fns:[ Fn.v ~loc:0 ~len:32 Opkey.F_32_match;
               Fn.v ~loc:32 ~len:32 Opkey.F_source ]
        ~locations:(region 8) ~payload:"" ()
    in
    Bitbuf.set_uint16 p (Header.fn_offset 0 + 2) 96;
    p
  in
  let key_bad =
    let p =
      Packet.build
        ~fns:[ Fn.v ~loc:0 ~len:32 Opkey.F_32_match;
               Fn.v ~loc:32 ~len:32 Opkey.F_source ]
        ~locations:(region 8) ~payload:"" ()
    in
    Bitbuf.set_uint16 p (Header.fn_offset 1 + 4) 999;
    p
  in
  [
    ("good", "ipv4.hex", ipv4);
    ( "good", "ndn-data.hex",
      Realize.ndn_data ~name:(Name.of_string "/hotnets.org/dip") ~content:"demo" () );
    ("good", "xia.hex", snd (List.hd (targets_of_proto ~hops:3 Xia)));
    ("good", "epic.hex", sample_packet ~hops:3 Epic);
    ( "good", "ndn-opt-data.hex",
      Realize.ndn_opt_data ~hops:3 ~session_id:0xD1AL ~timestamp:1l
        ~dest_key:(String.make 16 'k') ~name:(Name.of_string "/hotnets.org/dip")
        ~content:"demo" () );
    ("bad", "bounds--region-overflow.hex", bounds_bad);
    ("bad", "key--unknown.hex", key_bad);
    ( "bad", "race--parallel-overlap.hex",
      Packet.build ~parallel:true
        ~fns:[ Fn.v ~loc:0 ~len:32 Opkey.F_cc; Fn.v ~loc:0 ~len:72 Opkey.F_tel ]
        ~locations:(region 9) ~payload:"" () );
    ( "bad", "race--scratch-chain.hex",
      (* Disjoint fields, so the engine's overlap leveling runs both
         at level 1 — but F_mark consumes the scratch key F_parm
         produces: the hazard only the dataflow pass sees. *)
      Packet.build ~parallel:true
        ~fns:[ Fn.v ~loc:128 ~len:128 Opkey.F_parm;
               Fn.v ~loc:288 ~len:128 Opkey.F_mark ]
        ~locations:(region 52) ~payload:"" () );
    ( "bad", "dependency--missing-producer.hex",
      Packet.build
        ~fns:[ Fn.v ~loc:0 ~len:416 Opkey.F_mac ]
        ~locations:(region 52) ~payload:"" () );
    ( "bad", "sharding--telemetry-rewrite.hex",
      Packet.build
        ~fns:[ Fn.v ~loc:0 ~len:32 Opkey.F_32_match;
               Fn.v ~loc:0 ~len:72 Opkey.F_tel ]
        ~locations:(region 9) ~payload:"" () );
    ("bad", "loop--static-ring.hex", ipv4);
    ("bad", "blackhole--missing-route.hex", ipv4);
    ( "bad", "deployment--post-rewrite-gap.hex",
      Packet.build
        ~fns:[ Fn.v ~loc:0 ~len:32 Opkey.F_32_match;
               Fn.v ~loc:0 ~len:72 Opkey.F_tel;
               Fn.v ~loc:72 ~len:32 Opkey.F_hvf ]
        ~locations:(region 13) ~payload:"" () );
  ]

let emit_corpus dir =
  let ensure d = if not (Sys.file_exists d) then Sys.mkdir d 0o755 in
  ensure dir;
  List.iter
    (fun (sub, name, pkt) ->
      ensure (Filename.concat dir sub);
      let path = Filename.concat (Filename.concat dir sub) name in
      let oc = open_out path in
      output_string oc (Dip_stdext.Hex.encode (Bitbuf.to_string pkt));
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path)
    (corpus_programs ());
  0

(* Topology-dependent defect classes get a canned model chosen by the
   file's class prefix; everything else is per-program analysis. *)
let corpus_topology_diags cls pkt =
  match Packet.parse pkt with
  | Error e -> [ Report.error cls ("parse: " ^ e) ]
  | Ok view -> (
      match Reach.match_value view with
      | None ->
          [ Report.error cls "no concrete match value for the topology model" ]
      | Some v ->
          let config =
            match cls with
            | Report.Loop -> ring_config v
            | Report.Blackhole -> cut_config v
            | _ -> diamond_config v
          in
          Reach.check_view config view)

type corpus_result = {
  cr_file : string;
  cr_expect : string;  (* "clean" or a check-class name *)
  cr_errors : int;
  cr_warnings : int;
  cr_ok : bool;
  cr_detail : string;
}

let corpus_file (sub, name, path) =
  let file = Filename.concat sub name in
  let data = In_channel.with_open_bin path In_channel.input_all in
  match Dip_stdext.Hex.decode (String.trim data) with
  | exception Invalid_argument e ->
      { cr_file = file; cr_expect = "?"; cr_errors = 0; cr_warnings = 0;
        cr_ok = false; cr_detail = "bad hex: " ^ e }
  | s -> (
      let pkt = Bitbuf.of_string s in
      let report = Dip_analysis.analyze_packet ~registry pkt in
      if sub = "good" then
        {
          cr_file = file;
          cr_expect = "clean";
          cr_errors = Report.errors report;
          cr_warnings = Report.warnings report;
          cr_ok = Report.ok report;
          cr_detail =
            (if Report.ok report then "no errors"
             else Option.value ~default:"" (Report.first_error report));
        }
      else
        let cls_name =
          match String.index_opt name '-' with
          | Some i when i + 1 < String.length name && name.[i + 1] = '-' ->
              String.sub name 0 i
          | _ -> ""
        in
        match Report.check_of_name cls_name with
        | None ->
            { cr_file = file; cr_expect = cls_name; cr_errors = 0;
              cr_warnings = 0; cr_ok = false;
              cr_detail = "unknown check class in file name" }
        | Some cls ->
            let extra =
              match cls with
              | Report.Loop | Report.Blackhole | Report.Deployment ->
                  corpus_topology_diags cls pkt
              | _ -> []
            in
            let diags = report.Report.diags @ extra in
            let hit =
              List.find_opt
                (fun (d : Report.diag) ->
                  d.Report.severity = Report.Error && d.Report.check = cls)
                diags
            in
            {
              cr_file = file;
              cr_expect = cls_name;
              cr_errors =
                List.length
                  (List.filter
                     (fun (d : Report.diag) -> d.Report.severity = Report.Error)
                     diags);
              cr_warnings =
                List.length
                  (List.filter
                     (fun (d : Report.diag) -> d.Report.severity = Report.Warning)
                     diags);
              cr_ok = hit <> None;
              cr_detail =
                (match hit with
                | Some d -> d.Report.message
                | None ->
                    Printf.sprintf "expected an Error of class %s, found none"
                      cls_name);
            })

let run_corpus dir json =
  let list sub =
    let d = Filename.concat dir sub in
    if not (Sys.file_exists d) then []
    else
      Sys.readdir d |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".hex")
      |> List.sort compare
      |> List.map (fun f -> (sub, f, Filename.concat d f))
  in
  let files = list "good" @ list "bad" in
  if files = [] then begin
    Printf.eprintf "no corpus files under %s\n" dir;
    exit 2
  end;
  let results = List.map corpus_file files in
  let failed = List.filter (fun r -> not r.cr_ok) results in
  if json then begin
    let obj r =
      Printf.sprintf
        "{\"file\":%S,\"expect\":%S,\"errors\":%d,\"warnings\":%d,\"ok\":%b,\
         \"detail\":%S}"
        r.cr_file r.cr_expect r.cr_errors r.cr_warnings r.cr_ok r.cr_detail
    in
    Printf.printf "{\"corpus\":%S,\"files\":[%s],\"failed\":%d}\n" dir
      (String.concat "," (List.map obj results))
      (List.length failed)
  end
  else begin
    List.iter
      (fun r ->
        Printf.printf "%-40s %-12s %s (%s)\n" r.cr_file
          ("expect " ^ r.cr_expect)
          (if r.cr_ok then "ok" else "FAIL")
          r.cr_detail)
      results;
    Printf.printf "%d corpus file(s), %d failure(s)\n" (List.length results)
      (List.length failed)
  end;
  if failed <> [] then 1 else 0

let lint proto all hex strict deep topology json corpus emit =
  match emit with
  | Some dir -> emit_corpus dir
  | None -> (
      match corpus with
      | Some dir -> run_corpus dir json
      | None ->
          let hops = 3 in
          let targets =
            match hex with
            | Some h -> (
                match Dip_stdext.Hex.decode h with
                | s -> [ ("packet", Bitbuf.of_string s) ]
                | exception Invalid_argument e ->
                    Printf.eprintf "bad hex: %s\n" e;
                    exit 2)
            | None -> (
                if all then section3_targets ~hops @ extension_targets ~hops
                else
                  match proto with
                  | Some p -> targets_of_proto ~hops p
                  | None -> section3_targets ~hops)
          in
          let failed = ref false in
          let reports =
            List.map
              (fun (label, pkt) ->
                let report = Dip_analysis.analyze_packet ~registry pkt in
                let report =
                  match topology with
                  | None -> report
                  | Some n ->
                      { report with
                        Report.diags =
                          report.Report.diags @ chain_reach_diags ~hops:n pkt }
                in
                if not (Report.ok report) then failed := true;
                if strict && not (Report.clean report) then failed := true;
                (label, pkt, report))
              targets
          in
          if json then
            print_endline
              ("["
              ^ String.concat ","
                  (List.map
                     (fun (label, _, r) -> Report.to_json ~label r)
                     reports)
              ^ "]")
          else
            List.iter
              (fun (label, pkt, report) ->
                Format.printf "%-20s %a@." (label ^ ":") Report.pp report;
                if deep then print_deep pkt)
              reports;
          if !failed then 1 else 0)

(* --- chaos: fault injection + reliable delivery --- *)

let chaos n count interval seed drop corrupt duplicate jitter flap crash
    custody passes horizon no_retx json metrics flight =
  let spec =
    try Dip_netsim.Faults.spec ~drop ~corrupt ~duplicate ~jitter ()
    with Invalid_argument e ->
      Printf.eprintf "%s\n" e;
      exit 2
  in
  let reliable =
    if no_retx then { Host.Reliable.default_config with max_retries = 0 }
    else Host.Reliable.default_config
  in
  let schedule =
    match passes with
    | None -> []
    | Some (period, pass) -> (
        try
          Dip_netsim.Workload.satellite_passes ~seed:(Int64.of_int seed)
            ~period ~pass ~horizon ()
        with Invalid_argument e ->
          Printf.eprintf "%s\n" e;
          exit 2)
  in
  let cfg =
    {
      Chaos.default with
      routers = n;
      packets = count;
      interval;
      seed = Int64.of_int seed;
      spec;
      flap;
      schedule;
      crash;
      reliable;
      custody =
        (if custody then
           (* The sweep deadline bounds the run even if bundles end up
              permanently stranded (e.g. --drop 1). *)
           Some
             { Dip_core.Custody.default_config with
               retry_until = (2.0 *. horizon) +. 60.0 }
         else None);
    }
  in
  let m =
    match metrics with None -> None | Some _ -> Some (Dip_obs.Metrics.create ())
  in
  let ring =
    match flight with
    | None -> None
    | Some _ -> Some (Dip_obs.Flight.create ~pid:0 ~tid:0 ())
  in
  let r =
    try Chaos.run ?metrics:m ?flight:ring cfg
    with Invalid_argument e ->
      Printf.eprintf "%s\n" e;
      exit 2
  in
  if json then begin
    let ints kvs =
      String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v) kvs)
    in
    Printf.printf
      "{\"sent\":%d,\"delivered\":%d,\"delivery_rate\":%.6f,\"duplicates\":%d,\
       \"rejected\":%d,\"transmissions\":%d,\"acked\":%d,\"custodied\":%d,\
       \"gave_up\":%d,\"in_flight\":%d,\"latency_mean\":%.6f,\
       \"latency_p50\":%.6f,\"latency_p99\":%.6f,\"faults\":{%s},\
       \"custody\":{%s}}\n"
      r.Chaos.sent r.Chaos.delivered r.Chaos.delivery_rate r.Chaos.duplicates
      r.Chaos.rejected r.Chaos.transmissions r.Chaos.acked r.Chaos.custodied
      r.Chaos.gave_up r.Chaos.in_flight r.Chaos.latency_mean r.Chaos.latency_p50
      r.Chaos.latency_p99 (ints r.Chaos.faults) (ints r.Chaos.custody)
  end
  else begin
    Printf.printf
      "%d router(s), %d packet(s), seed %d%s%s:\n  delivered %d/%d (%.1f%%), %d \
       duplicate(s) deduped, %d integrity drop(s)\n  %d transmission(s), %d \
       acked, %d custodied, %d abandoned, %d unresolved\n  latency mean %.4fs  \
       p50 %.4fs  p99 %.4fs\n"
      n count seed
      (if no_retx then " (retransmission off)" else "")
      (if custody then " (custody transfer on)" else "")
      r.Chaos.delivered r.Chaos.sent
      (100.0 *. r.Chaos.delivery_rate)
      r.Chaos.duplicates r.Chaos.rejected r.Chaos.transmissions r.Chaos.acked
      r.Chaos.custodied r.Chaos.gave_up r.Chaos.in_flight r.Chaos.latency_mean
      r.Chaos.latency_p50 r.Chaos.latency_p99;
    if r.Chaos.faults <> [] then begin
      let t =
        Dip_stdext.Tabular.create
          ~aligns:[ Dip_stdext.Tabular.Left; Dip_stdext.Tabular.Right ]
          [ "injected fault"; "count" ]
      in
      List.iter
        (fun (k, v) -> Dip_stdext.Tabular.add_row t [ k; string_of_int v ])
        r.Chaos.faults;
      Dip_stdext.Tabular.print t
    end
    else print_endline "no faults injected";
    if r.Chaos.custody <> [] then begin
      let t =
        Dip_stdext.Tabular.create
          ~aligns:[ Dip_stdext.Tabular.Left; Dip_stdext.Tabular.Right ]
          [ "custody (all routers)"; "count" ]
      in
      List.iter
        (fun (k, v) -> Dip_stdext.Tabular.add_row t [ k; string_of_int v ])
        r.Chaos.custody;
      Dip_stdext.Tabular.print t
    end
  end;
  (match (metrics, m) with
  | Some fmt, Some m ->
      print_newline ();
      export_metrics fmt m
  | _ -> ());
  (match (flight, ring) with
  | Some path, Some r ->
      write_flight ~path ~text:false
        ~pid_names:[ (0, "chaos") ]
        (Dip_obs.Flight.events r)
  | _ -> ());
  0

(* --- profile: flight-recorded parallel run --- *)

(* A demo-shaped chain run with the flight recorder armed everywhere:
   per-pool worker lanes, the dispatcher lane, the simulator's window
   lifecycle, plus one deliberate mid-run epoch republish so the trace
   shows a configuration swap. The merged timeline is written as
   Chrome trace-event JSON (or plain text with --text). *)
let profile proto n count domains out text =
  if n < 1 || count < 1 || domains < 1 then begin
    Printf.eprintf "need at least one router, packet and domain\n";
    exit 1
  end;
  let sim = Dip_netsim.Sim.create () in
  let sim_ring = Dip_obs.Flight.create ~pid:0 ~tid:0 () in
  Dip_netsim.Sim.set_flight sim (Some sim_ring);
  let mk_env i _w =
    let env = mk_chain_router ~no_cache:false i in
    preinstall_pit proto [ env ];
    env
  in
  let snaps =
    List.init n (fun i -> Dip_mcore.Snapshot.v ~registry ~mk_env:(mk_env i) ())
  in
  let pools =
    List.mapi
      (fun i snap ->
        Dip_mcore.Pool.create ~domains ~metrics:true ~obs_sample_every:1
          ~flight:(i + 1) snap)
      snaps
  in
  let ids, sink_consumed = chain sim (List.mapi pool_router pools) in
  for k = 0 to count - 1 do
    Dip_netsim.Sim.inject sim ~at:(float_of_int k *. 1e-6) ~node:(List.hd ids)
      ~port:0
      (sample_packet ~hops:n proto)
  done;
  (* Republish every pool halfway through so the trace contains an
     epoch swap. The simulator applies the pending window before the
     timer runs, so the pools are quiescent at the swap. *)
  Dip_netsim.Sim.schedule sim
    ~at:(float_of_int (count / 2) *. 1e-6)
    (fun _ ->
      List.iter2
        (fun snap pool ->
          match Dip_mcore.Pool.publish pool (Dip_mcore.Snapshot.next snap) with
          | Ok () -> ()
          | Error e -> Printf.eprintf "republish: %s\n" e)
        snaps pools);
  Dip_mcore.Runner.run_parallel ~window:16e-6 sim
    ~pools:(List.combine ids pools);
  let rings =
    sim_ring :: List.concat_map Dip_mcore.Pool.flight_rings pools
  in
  let events = Dip_obs.Flight.merge rings in
  let layer_count prefix =
    List.length
      (List.filter
         (fun e ->
           let name = Dip_obs.Flight.id_name e.Dip_obs.Flight.ev_id in
           String.length name >= String.length prefix
           && String.sub name 0 (String.length prefix) = prefix)
         events)
  in
  Printf.printf
    "profiled %d router(s) x %d domain(s): %d/%d packet(s) reached the sink\n"
    n domains !sink_consumed count;
  Printf.printf "recorded %d event(s) (%d ring(s)):\n" (List.length events)
    (List.length rings);
  List.iter
    (fun (label, prefix) -> Printf.printf "  %-14s %d\n" label (layer_count prefix))
    [
      ("engine", "engine.");
      ("progcache", "progcache.");
      ("pool", "pool.");
      ("epoch swaps", "pool.publish");
      ("sim windows", "sim.window.");
      ("gc", "gc.");
    ];
  List.iteri
    (fun i pool ->
      match Dip_mcore.Pool.timeline_summary pool with
      | Some s ->
          print_newline ();
          print_timeline_summary (Printf.sprintf "r%d" (i + 1)) s
      | None -> ())
    pools;
  let pid_names =
    (0, "sim")
    :: List.mapi (fun i _ -> (i + 1, Printf.sprintf "r%d" (i + 1))) pools
  in
  write_flight ~path:out ~text ~pid_names events;
  List.iter Dip_mcore.Pool.shutdown pools;
  0

(* --- control: runtime FN management demo --- *)

let control () =
  let controller_key = Dip_crypto.Prf.key_of_string "controller-key-0" in
  let master = Ops.default_registry () in
  let live = Registry.restrict master [ Opkey.F_32_match; Opkey.F_source ] in
  let env = Env.create ~name:"edge" () in
  let state = Control.initial_state () in
  let show () =
    Printf.printf "  installed: %s\n"
      (String.concat ", " (List.map Opkey.name (Registry.supported live)))
  in
  print_endline "router boots with the minimal IP image:";
  show ();
  print_endline "\noperator pushes authenticated Enable_op commands:";
  List.iteri
    (fun i key ->
      let pkt =
        Control.encode ~key:controller_key ~seq:(Int64.of_int (i + 1))
          (Control.Enable_op key)
      in
      match
        Control.apply ~key:controller_key ~state ~env ~registry:live ~master pkt
      with
      | Ok cmd -> Format.printf "  applied: %a@." Control.pp_command cmd
      | Error e -> Printf.printf "  REJECTED: %s\n" e)
    [ Opkey.F_fib; Opkey.F_pit; Opkey.F_parm; Opkey.F_mac; Opkey.F_mark ];
  show ();
  print_endline "\na replayed command is refused:";
  let replay =
    Control.encode ~key:controller_key ~seq:1L (Control.Enable_op Opkey.F_ver)
  in
  (match
     Control.apply ~key:controller_key ~state ~env ~registry:live ~master replay
   with
  | Error e -> Printf.printf "  %s\n" e
  | Ok _ -> print_endline "  UNEXPECTEDLY ACCEPTED");
  print_endline "\nand a forged command (wrong controller key) is refused:";
  let forged =
    Control.encode
      ~key:(Dip_crypto.Prf.key_of_string "not-the-operator")
      ~seq:99L Control.Disable_pass
  in
  (match
     Control.apply ~key:controller_key ~state ~env ~registry:live ~master forged
   with
  | Error e -> Printf.printf "  %s\n" e
  | Ok _ -> print_endline "  UNEXPECTEDLY ACCEPTED");
  0

(* --- cmdliner wiring --- *)

let hops_arg =
  Arg.(value & opt int 1 & info [ "hops" ] ~docv:"N" ~doc:"OPT path length.")

let n_arg =
  Arg.(value & opt int 3 & info [ "n"; "routers" ] ~docv:"N" ~doc:"Chain length.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-program-cache" ]
        ~doc:
          "Disable the per-router decoded-FN-program cache so every packet \
           is cold-parsed (the escape hatch for debugging the fast path).")

let count_arg =
  Arg.(
    value & opt int 4
    & info [ "c"; "count" ] ~docv:"N"
        ~doc:
          "Packets to inject (each one freshly built, so from the second on \
           every router's program cache hits).")

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some Fmt_table) (some metrics_conv) None
    & info [ "metrics" ] ~docv:"FMT"
        ~doc:
          "Export the unified observability registry after the run: per-FN \
           run/skip counts and execution spans, verdict tallies, program-cache \
           and link metrics. $(docv) is $(b,table) (default), $(b,json) or \
           $(b,prom).")

let parallel_arg =
  Arg.(value & flag & info [ "parallel" ] ~doc:"Set the \\S2.2 parallel flag.")

let flight_arg =
  Arg.(
    value
    & opt ~vopt:(Some "dip-flight.json") (some string) None
    & info [ "flight" ] ~docv:"FILE"
        ~doc:
          "Arm the flight recorder and write the merged timeline to $(docv) \
           (default $(b,dip-flight.json)) as Chrome trace-event JSON — load \
           it in Perfetto or about://tracing.")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains per router. With $(docv) > 1 each router runs as a \
           $(b,Dip_mcore) pool: packets are sharded to workers by a flow hash \
           over the match field and executed in parallel batches; delivery \
           counts are identical to the single-domain run.")

let catalog_cmd =
  Cmd.v (Cmd.info "catalog" ~doc:"List the field-operation catalog (Table 1).")
    Term.(const catalog $ const ())

let inspect_cmd =
  Cmd.v (Cmd.info "inspect" ~doc:"Build a protocol's DIP packet and dump it.")
    Term.(const inspect $ proto_arg $ hops_arg)

let sizes_cmd =
  Cmd.v (Cmd.info "sizes" ~doc:"Header overhead per protocol (Table 2).")
    Term.(const sizes $ const ())

let figure2_cmd =
  Cmd.v
    (Cmd.info "figure2"
       ~doc:
         "Time one forwarding hop of every Figure 2 realization and the \
          ablation rows at 128, 768 and 1500 B (8 interleaved rounds, median \
          and range) and print the paper's ratios.")
    Term.(const figure2 $ const ())

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"Run a router-chain simulation for a protocol.")
    Term.(
      const demo $ proto_arg $ n_arg $ count_arg $ no_cache_arg $ metrics_arg
      $ domains_arg $ flight_arg)

let profile_proto_arg =
  Arg.(
    value
    & opt proto_conv Dip32
    & info [ "p"; "protocol"; "realization" ] ~docv:"PROTOCOL"
        ~doc:
          "Realization to profile (default dip32): dip32, dip128, ndn, opt, \
           ndn+opt, xia or epic.")

let profile_n_arg =
  Arg.(
    value & opt int 2 & info [ "n"; "routers" ] ~docv:"N" ~doc:"Chain length.")

let profile_count_arg =
  Arg.(
    value & opt int 5000
    & info [ "c"; "count" ] ~docv:"N" ~doc:"Packets to inject.")

let profile_domains_arg =
  Arg.(
    value & opt int 2
    & info [ "domains" ] ~docv:"N" ~doc:"Worker domains per router.")

let profile_out_arg =
  Arg.(
    value
    & opt string "dip-trace.json"
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Where to write the trace.")

let profile_text_arg =
  Arg.(
    value & flag
    & info [ "text" ]
        ~doc:"Write a plain-text merged timeline instead of Chrome JSON.")

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a fully flight-recorded parallel chain (engine spans, \
          program-cache traffic, pool hand-off lanes, a mid-run epoch swap, \
          window lifecycle, GC counters) and write the merged timeline as \
          Chrome trace-event JSON.")
    Term.(
      const profile $ profile_proto_arg $ profile_n_arg $ profile_count_arg
      $ profile_domains_arg $ profile_out_arg $ profile_text_arg)

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Follow one packet through the chain: the host-side trace merged \
          with the in-band F_tel telemetry records it accumulated.")
    Term.(const trace $ proto_arg $ n_arg)

let control_cmd =
  Cmd.v
    (Cmd.info "control"
       ~doc:"Demonstrate runtime FN upgrades via the control plane.")
    Term.(const control $ const ())

let estimate_cmd =
  Cmd.v (Cmd.info "estimate" ~doc:"PISA cost-model estimate for one hop.")
    Term.(const estimate $ proto_arg $ parallel_arg)

let lint_proto_arg =
  Arg.(
    value
    & opt (some proto_conv) None
    & info [ "p"; "protocol" ] ~docv:"PROTOCOL"
        ~doc:"Lint only this protocol's packets (default: the six \\S3 realizations).")

let lint_all_arg =
  Arg.(
    value & flag
    & info [ "all" ] ~doc:"Lint the \\S3 realizations and this repo's extensions.")

let lint_hex_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "hex" ] ~docv:"HEX" ~doc:"Lint a raw DIP packet given as hex.")

let lint_strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ] ~doc:"Exit non-zero on warnings too, not just errors.")

let lint_deep_arg =
  Arg.(
    value & flag
    & info [ "deep" ]
        ~doc:
          "Also print the abstract dataflow per execution side: resolved \
           reads/writes, scratch and read-after-write dependence edges, and \
           the value the forwarding decision matches on.")

let lint_topology_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "topology" ] ~docv:"N"
        ~doc:
          "Additionally run the symbolic reachability pass over an \
           $(docv)-router delivery chain (detects loops, black holes and \
           \\S2.4 deployment gaps). Targets without a forwarding FN are \
           skipped.")

let lint_json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit reports as a JSON array (or a JSON object with --corpus).")

let lint_corpus_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:
          "Run the defect-corpus gate: $(docv)/good/*.hex must analyze with \
           zero errors and every $(docv)/bad/<check>--<name>.hex must \
           produce at least one Error of the named check class (loop, \
           blackhole and deployment files are checked against canned \
           topology models).")

let lint_emit_corpus_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-corpus" ] ~docv:"DIR"
        ~doc:"Regenerate the checked-in defect corpus under $(docv).")

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically verify FN programs: bounds, parallel races, scratch \
          dependency chains, keys, mcore sharding safety, and (with \
          --topology or the corpus models) network-wide loops, black holes \
          and deployment gaps.")
    Term.(
      const lint $ lint_proto_arg $ lint_all_arg $ lint_hex_arg
      $ lint_strict_arg $ lint_deep_arg $ lint_topology_arg $ lint_json_arg
      $ lint_corpus_arg $ lint_emit_corpus_arg)

let chaos_count_arg =
  Arg.(
    value & opt int 200
    & info [ "c"; "count" ] ~docv:"N" ~doc:"Payloads to deliver reliably.")

let interval_arg =
  Arg.(
    value & opt float 0.01
    & info [ "interval" ] ~docv:"SECONDS" ~doc:"Spacing between sends.")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Fault-schedule seed. Equal seeds reproduce byte-identical fault \
           schedules.")

let prob_arg name doc =
  Arg.(value & opt float 0.0 & info [ name ] ~docv:"PROB" ~doc)

let jitter_arg =
  Arg.(
    value & opt float 0.0
    & info [ "link-jitter" ] ~docv:"SECONDS"
        ~doc:"Max extra per-packet link delay (causes reordering).")

let window_conv = Arg.(pair ~sep:':' float float)

let flap_arg =
  Arg.(
    value
    & opt (some window_conv) None
    & info [ "flap" ] ~docv:"FROM:UNTIL"
        ~doc:"Down window for the link after the middle router.")

let crash_arg =
  Arg.(
    value
    & opt (some window_conv) None
    & info [ "crash" ] ~docv:"FROM:UNTIL"
        ~doc:"Crash window for the middle router.")

let custody_arg =
  Arg.(
    value & flag
    & info [ "custody" ]
        ~doc:
          "Turn every router into a custodian (F_cust): bundles are stored \
           hop-by-hop, ACKed upstream and replayed when the link comes back \
           up — DTN-style disruption tolerance.")

let passes_arg =
  Arg.(
    value
    & opt (some (pair ~sep:':' float float)) None
    & info [ "passes" ] ~docv:"PERIOD:PASS"
        ~doc:
          "Satellite-pass contact schedule for the middle link: up for PASS \
           seconds every PERIOD seconds, down otherwise (until --horizon).")

let horizon_arg =
  Arg.(
    value & opt float 60.0
    & info [ "horizon" ] ~docv:"SECONDS"
        ~doc:"End of the --passes schedule (the link stays up after it).")

let no_retx_arg =
  Arg.(
    value & flag
    & info [ "no-retransmit" ]
        ~doc:"Send each payload exactly once (measure raw loss).")

let chaos_json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a reliable host pair across a router chain with seeded fault \
          injection (drop, corruption, duplication, reordering, link flap, \
          router crash, satellite-pass outages) and report delivery and \
          recovery statistics; --custody adds DTN-style custody transfer.")
    Term.(
      const chaos $ n_arg $ chaos_count_arg $ interval_arg $ seed_arg
      $ prob_arg "drop" "Per-transmission drop probability."
      $ prob_arg "corrupt" "Per-transmission byte-corruption probability."
      $ prob_arg "duplicate" "Per-transmission duplication probability."
      $ jitter_arg $ flap_arg $ crash_arg $ custody_arg $ passes_arg
      $ horizon_arg $ no_retx_arg $ chaos_json_arg $ metrics_arg $ flight_arg)

(* --- fib --- *)

(* Build the at-scale forwarding tables from a seeded BGP-shaped
   prefix set and report what a line card would care about: build
   rate, memory layout, and a few longest-match probes. *)
let fib routes v6_routes seed =
  let module Fib = Dip_tables.Fib in
  let module Workload = Dip_netsim.Workload in
  let ps = Workload.v4_prefixes ~seed ~count:routes in
  let t0 = Unix.gettimeofday () in
  let t = Fib.V4.create () in
  Array.iteri (fun i (a, len) -> Fib.V4.insert t a ~len (i land 15)) ps;
  let dt = Unix.gettimeofday () -. t0 in
  let st = Fib.V4.stats t in
  Printf.printf "IPv4: DIR-24-8 flat-array engine\n";
  Printf.printf "  routes         %d (%.0f inserts/s)\n" st.Fib.V4.routes
    (float_of_int routes /. dt);
  Printf.printf "  next hops      %d interned\n" st.Fib.V4.next_hops;
  Printf.printf "  /24 chunks     %d of 1024 materialized\n" st.Fib.V4.chunks;
  Printf.printf "  spill blocks   %d (for /25-/32 routes)\n" st.Fib.V4.spill_blocks;
  Printf.printf "  data plane     %.1f MB (%.1f B/route)\n"
    (float_of_int st.Fib.V4.lookup_bytes /. 1e6)
    (float_of_int st.Fib.V4.lookup_bytes /. float_of_int (max 1 st.Fib.V4.routes));
  Printf.printf "  with side store %.1f MB total\n"
    (float_of_int st.Fib.V4.total_bytes /. 1e6);
  let g = Dip_stdext.Prng.create (Int64.add seed 1L) in
  Printf.printf "  sample probes:\n";
  for _ = 1 to 4 do
    let a, _ = ps.(Dip_stdext.Prng.int g routes) in
    match Fib.V4.lookup t a with
    | Some (l, p) ->
        Printf.printf "    %-18s -> %s/%d via port %d\n"
          (Ipaddr.V4.to_string a)
          (Ipaddr.V4.to_string a) l p
    | None -> Printf.printf "    %-18s -> no route\n" (Ipaddr.V4.to_string a)
  done;
  let p6 = Workload.v6_prefixes ~seed ~count:v6_routes in
  let t0 = Unix.gettimeofday () in
  let t6 = Fib.V6.create () in
  Array.iteri (fun i (a, len) -> Fib.V6.insert t6 a ~len (i land 15)) p6;
  let dt6 = Unix.gettimeofday () -. t0 in
  let st6 = Fib.V6.stats t6 in
  Printf.printf "IPv6: compressed stride-8 multibit trie\n";
  Printf.printf "  routes         %d (%.0f inserts/s)\n" st6.Fib.V6.routes
    (float_of_int v6_routes /. dt6);
  Printf.printf "  nodes          %d (%d promoted to dense)\n" st6.Fib.V6.nodes
    st6.Fib.V6.dense_nodes;
  Printf.printf "  memory         %.1f MB (%.1f B/route)\n"
    (float_of_int st6.Fib.V6.total_bytes /. 1e6)
    (float_of_int st6.Fib.V6.total_bytes /. float_of_int (max 1 st6.Fib.V6.routes));
  0

let fib_routes_arg =
  Arg.(
    value & opt int 100_000
    & info [ "routes" ] ~docv:"N" ~doc:"IPv4 route count.")

let fib_v6_routes_arg =
  Arg.(
    value & opt int 10_000
    & info [ "v6-routes" ] ~docv:"N" ~doc:"IPv6 route count.")

let fib_seed_arg =
  Arg.(
    value & opt int64 42L
    & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let fib_cmd =
  Cmd.v
    (Cmd.info "fib"
       ~doc:
         "Build the at-scale forwarding tables (DIR-24-8 IPv4, multibit-trie \
          IPv6) from a seeded BGP-shaped prefix set and report build rate, \
          memory layout and sample probes.")
    Term.(const fib $ fib_routes_arg $ fib_v6_routes_arg $ fib_seed_arg)

let () =
  let doc = "DIP: unified L3 protocols from shared field operations" in
  let info = Cmd.info "dip" ~version:"0.1.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            catalog_cmd; inspect_cmd; sizes_cmd; figure2_cmd; demo_cmd; profile_cmd;
            trace_cmd; estimate_cmd; lint_cmd; chaos_cmd; control_cmd;
            fib_cmd;
          ]))

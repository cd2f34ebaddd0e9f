module Bitbuf = Dip_bitbuf.Bitbuf
module Field = Dip_bitbuf.Field

type verdict =
  | Forwarded of Env.port list
  | Delivered
  | Responded of Bitbuf.t
  | Quiet
  | Dropped of string
  | Unsupported of Opkey.t

type info = {
  ops_run : int;
  ops_skipped : int;
  state_bytes : int;
  parallel_depth : int;
}

let mandatory = function
  | Opkey.F_parm | Opkey.F_mac | Opkey.F_mark | Opkey.F_hvf -> true
  | Opkey.F_32_match | Opkey.F_128_match | Opkey.F_source | Opkey.F_fib
  | Opkey.F_pit | Opkey.F_ver | Opkey.F_dag | Opkey.F_intent | Opkey.F_pass
  | Opkey.F_cc | Opkey.F_tel | Opkey.F_cust ->
      false

(* Dependency leveling for the §2.2 parallel flag: two FNs conflict
   when their target fields overlap (a conservative approximation of
   read/write dependences). The critical-path length is what a
   modular-parallel dataplane (NFP-style, refs [31,32]) would pay.
   [included] restricts the analysis to the FNs that actually
   executed — a tag-skipped or unknown-ignorable FN contributes no
   dataplane work, so it must not lengthen the path. *)
let critical_path_over fns ~included =
  let n = Array.length fns in
  let level = Array.make n 0 in
  let depth = ref 0 in
  for i = 0 to n - 1 do
    if included i then begin
      level.(i) <- 1;
      for j = 0 to i - 1 do
        if level.(j) > 0 && Field.overlaps fns.(i).Fn.field fns.(j).Fn.field
        then level.(i) <- max level.(i) (level.(j) + 1)
      done;
      if level.(i) > !depth then depth := level.(i)
    end
  done;
  !depth

let critical_path fns = critical_path_over fns ~included:(fun _ -> true)

let no_info = { ops_run = 0; ops_skipped = 0; state_bytes = 0; parallel_depth = 0 }

let verdict_class = function
  | Forwarded _ -> `Forwarded
  | Delivered -> `Delivered
  | Responded _ -> `Responded
  | Quiet -> `Quiet
  | Dropped _ -> `Dropped
  | Unsupported _ -> `Unsupported

(* Opt-in static pre-check (Dip_analysis.verifier): reject a
   malformed FN program before executing any of it. A cached
   known-good (or known-bad) program skips re-verification. *)
let check_view ?verify parsed =
  match parsed with
  | Error e -> Error ("parse: " ^ e)
  | Ok (view, entry) -> (
      match verify with
      | None -> Ok (view, entry)
      | Some check -> (
          let verdict =
            match entry with
            | Some e -> (
                (* The memo is keyed on the hook's physical identity:
                   a different verifier (new registry, new policy)
                   re-checks instead of inheriting a verdict it never
                   produced. *)
                match e.Progcache.verdict with
                | Some (h, v) when h == check -> v
                | _ ->
                    let v = check view in
                    e.Progcache.verdict <- Some (check, v);
                    v)
            | None -> check view
          in
          match verdict with
          | Ok () -> Ok (view, entry)
          | Error e -> Error ("verify: " ^ e)))

let run ?obs ?verify ~registry ~side env ~now ~ingress buf =
  (* Observability is opt-in: with [obs = None] every instrumentation
     point is a single match on an immediate — no clock reads, no
     allocation. [sampled] selects the runs that additionally get
     monotonic-clock spans (Obs sampling keeps timing overhead off
     most packets). *)
  let sampled = match obs with None -> false | Some o -> Obs.begin_packet o in
  let t_start = if sampled then Dip_obs.Clock.now_ns () else 0L in
  let parsed =
    (* Fast path: packets of a known program reuse the cached FN
       array (and its memoized verification verdict) instead of
       re-decoding the definitions. *)
    if Progcache.enabled env.Env.prog_cache then
      Progcache.parse env.Env.prog_cache buf
    else
      match Packet.parse buf with
      | Ok view -> Ok (view, None)
      | Error e -> Error e
  in
  let observe verdict =
    match obs with
    | None -> ()
    | Some o ->
        Obs.verdict o (verdict_class verdict);
        if sampled then Obs.process_ns o (Dip_obs.Clock.elapsed_ns t_start)
  in
  match check_view ?verify parsed with
  | Error e ->
      observe (Dropped e);
      (Dropped e, no_info)
  | Ok (view, entry) ->
      let budget = Guard.start env.Env.guard in
      let scratch = env.Env.scratch in
      scratch.Registry.opt_key <- None;
      scratch.Registry.emit <- [];
      let ops_run = ref 0 and ops_skipped = ref 0 in
      let route = ref None in
      let nfns = Array.length view.Packet.fns in
      (* Which FNs actually executed — only needed for the parallel
         flag's critical-path accounting. *)
      let executed =
        if view.Packet.header.Header.parallel then Array.make nfns false
        else [||]
      in
      let finish verdict =
        let depth =
          if view.Packet.header.Header.parallel then
            if !ops_run < nfns then
              critical_path_over view.Packet.fns ~included:(fun i ->
                  executed.(i))
            else
              (* The whole program ran: the full-program path applies
                 and is memoized on the cache entry. *)
              match entry with
              | Some e ->
                  if e.Progcache.depth < 0 then
                    e.Progcache.depth <- critical_path view.Packet.fns;
                  e.Progcache.depth
              | None -> critical_path view.Packet.fns
          else !ops_run
        in
        observe verdict;
        ( verdict,
          {
            ops_run = !ops_run;
            ops_skipped = !ops_skipped;
            state_bytes = Guard.state_used budget;
            parallel_depth = depth;
          } )
      in
      let rec loop i =
        if i = nfns then
          (* end processing: act on the accumulated decision *)
          match (!route, side) with
          | Some (`Ports ports), _ ->
              if Header.decrement_hop_limit buf then finish (Forwarded ports)
              else finish (Dropped "hop-limit-expired")
          | Some `Local, _ -> finish Delivered
          | None, `Host -> finish Delivered
          | None, `Router -> finish (Dropped "no-forwarding-decision")
        else
          let fn = view.Packet.fns.(i) in
          let skip_tag =
            match (side, fn.Fn.tag) with
            | `Router, Fn.Host -> true (* Algorithm 1 line 5 *)
            | `Host, Fn.Router -> true
            | (`Router | `Host), _ -> false
          in
          if skip_tag then begin
            incr ops_skipped;
            (match obs with Some o -> Obs.op_skip o fn.Fn.key | None -> ());
            loop (i + 1)
          end
          else
            match Registry.find registry fn.Fn.key with
            | None ->
                if mandatory fn.Fn.key then finish (Unsupported fn.Fn.key)
                else begin
                  (* "Otherwise, the router can simply ignore this
                     FN" (§2.4). *)
                  incr ops_skipped;
                  (match obs with
                  | Some o -> Obs.op_skip o fn.Fn.key
                  | None -> ());
                  loop (i + 1)
                end
            | Some impl ->
                if not (Guard.charge_op budget) then
                  finish (Dropped "guard-ops-exhausted")
                else begin
                  incr ops_run;
                  if view.Packet.header.Header.parallel then
                    executed.(i) <- true;
                  let ctx =
                    {
                      Registry.env;
                      view;
                      fn;
                      target = Packet.locations_field view fn;
                      ingress;
                      now;
                      scratch;
                      budget;
                    }
                  in
                  let outcome =
                    match obs with
                    | Some o ->
                        Obs.op_run o fn.Fn.key;
                        if sampled then begin
                          let t0 = Dip_obs.Clock.now_ns () in
                          let r = impl ctx in
                          Obs.op_ns o fn.Fn.key (Dip_obs.Clock.elapsed_ns t0);
                          r
                        end
                        else impl ctx
                    | None -> impl ctx
                  in
                  match outcome with
                  | Registry.Continue -> loop (i + 1)
                  | Registry.Set_route ports ->
                      if !route = None then route := Some (`Ports ports);
                      loop (i + 1)
                  | Registry.Deliver_local ->
                      if !route = None then route := Some `Local;
                      loop (i + 1)
                  | Registry.Respond pkt -> finish (Responded pkt)
                  | Registry.Silent -> finish Quiet
                  | Registry.Abort reason ->
                      (match obs with
                      | Some o -> Obs.op_error o fn.Fn.key
                      | None -> ());
                      finish (Dropped reason)
                end
      in
      loop 0

let process ?obs ?verify ~registry env ~now ~ingress buf =
  run ?obs ?verify ~registry ~side:`Router env ~now ~ingress buf

let host_process ?obs ?verify ~registry env ~now ~ingress buf =
  run ?obs ?verify ~registry ~side:`Host env ~now ~ingress buf

module Counter = Dip_obs.Metrics.Counter

(* The Sim drop reason of each unsupported key, built once. *)
let unsupported_reason =
  Array.init (Opkey.max_key + 1) (fun i ->
      match Opkey.of_int i with
      | Some key -> "unsupported-" ^ Opkey.name key
      | None -> "")

(* Auxiliary transmissions (scratch.emit, pushed by F_cust) precede
   the verdict's own actions: custody is taken — and ACKed — even
   when a later decision drops the packet (hop-limit expiry), which
   is exactly when the stored copy matters. Draining here instead of
   threading a value through [info] keeps every call site — the sim
   handlers, the mcore pool, direct users — correct without a
   signature change. *)
let drain_aux env =
  match env.Env.scratch.Registry.emit with
  | [] -> []
  | l ->
      env.Env.scratch.Registry.emit <- [];
      List.rev_map (fun (p, pkt) -> Dip_netsim.Sim.Forward (p, pkt)) l

let verdict_actions env ~ingress buf verdict =
  let c = env.Env.counts in
  match verdict with
  | Forwarded ports ->
      Counter.incr c.forwarded;
      (* Fan-out copies must not share storage: every downstream hop
         mutates its packet in place (hop limit, tag updates), so two
         in-flight copies aliasing one Bitbuf.t would corrupt each
         other. The first port keeps the original buffer. *)
      List.mapi
        (fun i p ->
          Dip_netsim.Sim.Forward (p, if i = 0 then buf else Bitbuf.copy buf))
        ports
  | Delivered ->
      Counter.incr c.delivered;
      [ Dip_netsim.Sim.Consume ]
  | Responded reply ->
      Counter.incr c.responded;
      [ Dip_netsim.Sim.Forward (ingress, reply) ]
  | Quiet ->
      Counter.incr c.quiet;
      []
  | Dropped reason ->
      Counter.incr (Dip_obs.Metrics.member c.dropped reason);
      [ Dip_netsim.Sim.Drop reason ]
  | Unsupported key ->
      Counter.incr (Dip_obs.Metrics.member c.unsupported (Opkey.name key));
      [
        Dip_netsim.Sim.Forward (ingress, Errors.fn_unsupported ~key ~rejected:buf);
        Dip_netsim.Sim.Drop unsupported_reason.(Opkey.to_int key);
      ]

let actions_of_verdict env ~ingress buf verdict =
  match drain_aux env with
  | [] -> verdict_actions env ~ingress buf verdict
  | aux -> aux @ verdict_actions env ~ingress buf verdict

(* The deferred per-node accounting: progcache counters into [env]'s
   counters and, with [obs], the cache gauges. *)
let publish obs env =
  Env.publish_cache_stats env;
  match obs with
  | None -> ()
  | Some o -> Obs.publish_cache o env.Env.prog_cache

let process_batch ?obs ?verify ~registry env ~now ~ingress bufs =
  let out = Array.map (process ?obs ?verify ~registry env ~now ~ingress) bufs in
  publish obs env;
  out

let handle ~side ?obs ?verify ~registry env ~now ~ingress packet =
  let verdict, _info = run ?obs ?verify ~registry ~side env ~now ~ingress packet in
  publish obs env;
  actions_of_verdict env ~ingress packet verdict

let handler ?obs ?verify ~registry env _sim ~now ~ingress packet =
  handle ~side:`Router ?obs ?verify ~registry env ~now ~ingress packet

let host_handler ?obs ?verify ~registry env _sim ~now ~ingress packet =
  handle ~side:`Host ?obs ?verify ~registry env ~now ~ingress packet

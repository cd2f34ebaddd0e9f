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
   dataplane work, so it must not lengthen the path. [levels] gives
   each included FN's step on that path (0 for the others). *)
let levels fns ~included =
  let n = Array.length fns in
  let level = Array.make n 0 in
  for i = 0 to n - 1 do
    if included i then begin
      level.(i) <- 1;
      for j = 0 to i - 1 do
        if level.(j) > 0 && Field.overlaps fns.(i).Fn.field fns.(j).Fn.field
        then level.(i) <- max level.(i) (level.(j) + 1)
      done
    end
  done;
  level

let critical_path_over fns ~included = Array.fold_left max 0 (levels fns ~included)

let critical_path fns = critical_path_over fns ~included:(fun _ -> true)

(* The verdict class an [engine.process] flight span carries (Obs). *)
let verdict_class = function
  | Forwarded _ -> 0
  | Delivered -> 1
  | Responded _ -> 2
  | Quiet -> 3
  | Dropped _ -> 4
  | Unsupported _ -> 5

(* --- compiled programs ------------------------------------------------ *)

type side = Router_side | Host_side

type hook = Packet.view -> (unit, string) result

(* Algorithm 1's per-FN decisions for one program on one side of a
   node, taken once. FN [i] runs [ops.(i)]: its operation module
   applied to the FN and its absolute FN_Loc slice, or [skip] (a tag
   mismatch, or an uninstalled key that may be ignored, §2.4). *)
type compiled = {
  registry : Registry.t;
  generation : int;
  side : side;
  ops : (Registry.ctx -> Registry.outcome) array;
      (* up to the first unsupported mandatory FN *)
  unsupported : verdict option; (* what reaching the end of [ops] means *)
  depth : int array;
      (* parallel programs: [depth.(k)] is the critical path over the
         first [k] running FNs, the FNs a run that executed [k]
         operations executed *)
  mutable hook : hook; (* the [?verify] memo and the hook it is for *)
  mutable hook_verdict : (unit, string) result;
}

(* The entries of one FN program hold one [Compiled] cell (Progcache),
   so a program compiled, verified or recompiled through one of them
   is so for all. *)
type Progcache.program += Compiled of { mutable current : compiled }

let skip : Registry.ctx -> Registry.outcome = fun _ -> Registry.Continue
let no_hook : hook = fun _ -> Ok ()

let compile ~registry ~side (view : Packet.view) =
  let fns = view.Packet.fns in
  let n = Array.length fns in
  let unsupported = ref None and stop = ref 0 in
  let ops = Array.make n skip in
  while !stop < n && Option.is_none !unsupported do
    let fn = fns.(!stop) in
    (match (side, fn.Fn.tag) with
    | Router_side, Fn.Host | Host_side, Fn.Router -> () (* line 5 *)
    | Router_side, Fn.Router | Host_side, Fn.Host -> (
        match Registry.find registry fn.Fn.key with
        | Some impl -> ops.(!stop) <- impl fn (Packet.locations_field view fn)
        | None ->
            (* "the router can simply ignore this FN" (§2.4), unless
               every on-path node must take part *)
            if mandatory fn.Fn.key then unsupported := Some (Unsupported fn.Fn.key)));
    if Option.is_none !unsupported then incr stop
  done;
  let ops = Array.sub ops 0 !stop in
  let depth =
    if not view.Packet.header.Header.parallel then [||]
    else begin
      (* A level depends only on earlier running FNs, so the critical
         path over the first [k] of them is a running maximum. *)
      let runs i = i < !stop && ops.(i) != skip in
      let level = levels fns ~included:runs in
      let depth = Array.make (!stop + 1) 0 and k = ref 0 in
      for i = 0 to !stop - 1 do
        if runs i then begin
          depth.(!k + 1) <- max depth.(!k) level.(i);
          incr k
        end
      done;
      depth
    end
  in
  {
    registry;
    generation = Registry.generation registry;
    side;
    ops;
    unsupported = !unsupported;
    depth;
    hook = no_hook;
    hook_verdict = Ok ();
  }

(* The entry's program, compiled on first use and again whenever the
   registry it ran under is replaced or changed. *)
let program_of (e : Progcache.entry) ~registry ~side =
  match e.Progcache.program with
  | Compiled c ->
      let p = c.current in
      if
        p.registry == registry
        && p.generation = Registry.generation registry
        && p.side == side
      then p
      else begin
        let p = compile ~registry ~side e.Progcache.view in
        c.current <- p;
        p
      end
  | _ ->
      let p = compile ~registry ~side e.Progcache.view in
      e.Progcache.program <- Compiled { current = p };
      p

(* Opt-in static pre-check (Dip_analysis.verifier): reject a
   malformed FN program before executing any of it. A cached program
   checks once per hook. *)
let verify_program ?verify ~memo p view =
  match verify with
  | None -> Ok ()
  | Some check when memo ->
      if p.hook != check then begin
        p.hook_verdict <- check view;
        p.hook <- check
      end;
      p.hook_verdict
  | Some check -> check view

let released = Bitbuf.create 0

(* [Forwarded [p]] for a port below 256, built once per process, as
   Ops shares [Set_route [p]]. *)
let forwarded_to = Array.init 256 (fun p -> Forwarded [ p ])

let forwarded = function
  | [ p ] when p >= 0 && p < 256 -> forwarded_to.(p)
  | ports -> Forwarded ports

(* The run's accounting, written into the node for [process] to read:
   a run returns only its verdict, so it allocates nothing of its
   own. *)
let account env ~ops_run ~ops_skipped ~parallel_depth =
  env.Env.ops_run <- ops_run;
  env.Env.ops_skipped <- ops_skipped;
  env.Env.parallel_depth <- parallel_depth

(* Run a compiled program on [view], which points at [buf]. Observability
   is opt-in: with [obs = None] every instrumentation point is a single
   match on an immediate -- no clock reads, no allocation. [sampled]
   selects the runs that additionally get monotonic-clock spans. *)
let exec ?obs ~sampled ~t_start p view env ~now ~ingress buf =
  let ctx = env.Env.ctx in
  let budget = ctx.Registry.budget and scratch = ctx.Registry.scratch in
  Guard.restart budget;
  scratch.Registry.opt_key <- None;
  scratch.Registry.emit <- [];
  ctx.Registry.view <- view;
  ctx.Registry.ingress <- ingress;
  ctx.Registry.now <- now;
  let fns = view.Packet.fns in
  let n = Array.length p.ops in
  let i = ref 0 and ops_run = ref 0 and ops_skipped = ref 0 in
  (* A sampled run's last clock reading: it ends one op's span and
     begins the next one's. *)
  let mark = ref (if sampled then Dip_obs.Flight.now () else 0) in
  (* The accumulated forwarding decision: 0 none, 1 [ports], 2 local. *)
  let route = ref 0 and ports = ref [] in
  (* A verdict decided mid-program ends the loop. *)
  let stopped = ref false and verdict = ref Quiet in
  while !i < n do
    let fn = fns.(!i) and op = p.ops.(!i) in
    if op == skip then begin
      incr ops_skipped;
      match obs with Some o -> Obs.op_skip o fn.Fn.key | None -> ()
    end
    else if not (Guard.charge_op budget) then begin
      stopped := true;
      verdict := Dropped "guard-ops-exhausted"
    end
    else begin
      incr ops_run;
      let outcome =
        match obs with
        | Some o ->
            Obs.op_run o fn.Fn.key;
            if sampled then begin
              let r = op ctx in
              mark := Obs.op_ns o fn.Fn.key !mark;
              r
            end
            else op ctx
        | None -> op ctx
      in
      match outcome with
      | Registry.Continue -> ()
      | Registry.Set_route r ->
          if !route = 0 then begin
            route := 1;
            ports := r
          end
      | Registry.Deliver_local -> if !route = 0 then route := 2
      | Registry.Respond pkt ->
          stopped := true;
          verdict := Responded pkt
      | Registry.Silent -> stopped := true
      | Registry.Abort reason ->
          (match obs with Some o -> Obs.op_error o fn.Fn.key | None -> ());
          stopped := true;
          verdict := Dropped reason
    end;
    if !stopped then i := n else incr i
  done;
  let verdict =
    if !stopped then !verdict
    else
      match p.unsupported with
      | Some v -> v
      | None ->
          (* end processing: act on the accumulated decision *)
          if !route = 1 then
            if Header.decrement_hop_limit buf then forwarded !ports
            else Dropped "hop-limit-expired"
          else if !route = 2 then Delivered
          else if p.side == Host_side then Delivered
          else Dropped "no-forwarding-decision"
  in
  (* Neither the program nor the node keeps the packet alive. *)
  view.Packet.buf <- released;
  (match obs with
  | Some o when sampled ->
      Obs.process_ns o t_start (verdict_class verdict)
  | _ -> ());
  account env ~ops_run:!ops_run ~ops_skipped:!ops_skipped
    ~parallel_depth:
      (if Array.length p.depth = 0 then !ops_run else p.depth.(!ops_run));
  verdict

(* A packet dropped before any FN ran: nothing run, no state used. *)
let drop ?obs ~sampled ~t_start env reason =
  let verdict = Dropped reason in
  (match obs with
  | Some o when sampled ->
      Obs.process_ns o t_start (verdict_class verdict)
  | _ -> ());
  Guard.restart env.Env.ctx.Registry.budget;
  account env ~ops_run:0 ~ops_skipped:0 ~parallel_depth:0;
  verdict

(* Verify, then execute. *)
let run_program ?obs ?verify ~memo ~sampled ~t_start p view env ~now ~ingress buf =
  view.Packet.buf <- buf;
  match verify_program ?verify ~memo p view with
  | Ok () -> exec ?obs ~sampled ~t_start p view env ~now ~ingress buf
  | Error e ->
      view.Packet.buf <- released;
      drop ?obs ~sampled ~t_start env ("verify: " ^ e)

let run ?obs ?verify ~registry ~side env ~now ~ingress buf =
  let sampled = match obs with None -> false | Some o -> Obs.begin_packet o in
  let t_start = if sampled then Dip_obs.Flight.now () else 0 in
  let pc = env.Env.prog_cache in
  let e = if Progcache.enabled pc then Progcache.probe pc buf else Progcache.absent in
  if e != Progcache.absent then
    let p = program_of e ~registry ~side in
    run_program ?obs ?verify ~memo:true ~sampled ~t_start p e.Progcache.view env ~now
      ~ingress buf
  else
    (* Cache off, or a packet the cache cannot serve: a throwaway
       program through the same loop. *)
    match Packet.parse buf with
    | Ok view ->
        let p = compile ~registry ~side view in
        run_program ?obs ?verify ~memo:false ~sampled ~t_start p view env ~now
          ~ingress buf
    | Error e -> drop ?obs ~sampled ~t_start env ("parse: " ^ e)

(* The verdict of a run and the accounting it left in [env]. *)
let with_info env verdict =
  ( verdict,
    {
      ops_run = env.Env.ops_run;
      ops_skipped = env.Env.ops_skipped;
      state_bytes = Guard.state_used env.Env.ctx.Registry.budget;
      parallel_depth = env.Env.parallel_depth;
    } )

let process ?obs ?verify ~registry env ~now ~ingress buf =
  with_info env (run ?obs ?verify ~registry ~side:Router_side env ~now ~ingress buf)

let host_process ?obs ?verify ~registry env ~now ~ingress buf =
  with_info env (run ?obs ?verify ~registry ~side:Host_side env ~now ~ingress buf)

module Counter = Dip_obs.Metrics.Counter

(* The Sim drop reason of each unsupported key, built once. *)
let unsupported_reason =
  Array.init (Opkey.max_key + 1) (fun i ->
      match Opkey.of_int i with
      | Some key -> "unsupported-" ^ Opkey.name key
      | None -> "")

let verdict_actions env ~ingress buf verdict =
  let c = env.Env.counts in
  match verdict with
  | Forwarded [ p ] ->
      Counter.incr c.forwarded;
      [ Dip_netsim.Sim.Forward (p, buf) ]
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

(* Auxiliary transmissions (scratch.emit, pushed by F_cust) precede
   the verdict's own actions: custody is taken — and ACKed — even
   when a later decision drops the packet (hop-limit expiry), which
   is exactly when the stored copy matters. Draining here instead of
   threading a value through [info] keeps every call site — the sim
   handlers, the mcore pool, direct users — correct without a
   signature change. *)
let actions_of_verdict env ~ingress buf verdict =
  let scratch = env.Env.ctx.Env.scratch in
  match scratch.Registry.emit with
  | [] -> verdict_actions env ~ingress buf verdict
  | aux ->
      scratch.Registry.emit <- [];
      List.rev_append aux (verdict_actions env ~ingress buf verdict)

let process_batch ?obs ?verify ~registry env ~now ~ingress bufs =
  let out = Array.map (process ?obs ?verify ~registry env ~now ~ingress) bufs in
  Env.publish_cache_stats env;
  out

let handle ~side ?obs ?verify ~registry env ~now ~ingress packet =
  let verdict = run ?obs ?verify ~registry ~side env ~now ~ingress packet in
  Env.publish_cache_stats env;
  actions_of_verdict env ~ingress packet verdict

let handler ?obs ?verify ~registry env _sim ~now ~ingress packet =
  handle ~side:Router_side ?obs ?verify ~registry env ~now ~ingress packet

let host_handler ~registry env _sim ~now ~ingress packet =
  handle ~side:Host_side ~registry env ~now ~ingress packet

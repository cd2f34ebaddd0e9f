(* The literal Algorithm 1 interpreter: the test oracle for the staged
   engine (Engine.process / Engine.host_process). Per packet it parses
   (through the node's program cache when that is on, so both sides
   count the same hits and misses), runs the [?verify] hook, then walks
   the FN array, looking each operation key up in the registry,
   applying it to the FN and its target and running the result on a
   fresh context record, for every FN that runs. No compiled program,
   no memo: everything is decided again for every packet. *)

open Dip_core
module Bitbuf = Dip_bitbuf.Bitbuf

(* The class Obs records as an [engine.process] span's a1. *)
let verdict_class = function
  | Engine.Forwarded _ -> 0
  | Engine.Delivered -> 1
  | Engine.Responded _ -> 2
  | Engine.Quiet -> 3
  | Engine.Dropped _ -> 4
  | Engine.Unsupported _ -> 5

let no_info =
  { Engine.ops_run = 0; ops_skipped = 0; state_bytes = 0; parallel_depth = 0 }

let run ?obs ?verify ~registry ~side env ~now ~ingress buf =
  let sampled = match obs with None -> false | Some o -> Obs.begin_packet o in
  let t_start = if sampled then Dip_obs.Clock.now_ns () else 0L in
  let parsed =
    if Progcache.enabled env.Env.prog_cache then
      Progcache.parse env.Env.prog_cache buf
    else
      match Packet.parse buf with
      | Ok view -> Ok (view, None)
      | Error e -> Error e
  in
  let observe verdict =
    match obs with
    | Some o when sampled ->
        Obs.process_ns o (Dip_obs.Clock.elapsed_ns t_start) (verdict_class verdict)
    | _ -> ()
  in
  let checked =
    match parsed with
    | Error e -> Error ("parse: " ^ e)
    | Ok (view, _) -> (
        match verify with
        | None -> Ok view
        | Some check -> (
            match check view with
            | Ok () -> Ok view
            | Error e -> Error ("verify: " ^ e)))
  in
  match checked with
  | Error e ->
      observe (Engine.Dropped e);
      (Engine.Dropped e, no_info)
  | Ok view ->
      let budget = Guard.start env.Env.guard in
      let scratch = env.Env.ctx.Env.scratch in
      scratch.Registry.opt_key <- None;
      scratch.Registry.emit <- [];
      let ops_run = ref 0 and ops_skipped = ref 0 in
      let route = ref None in
      let nfns = Array.length view.Packet.fns in
      let executed = Array.make nfns false in
      let finish verdict =
        let depth =
          if view.Packet.header.Header.parallel then
            Engine.critical_path_over view.Packet.fns ~included:(fun i ->
                executed.(i))
          else !ops_run
        in
        observe verdict;
        ( verdict,
          {
            Engine.ops_run = !ops_run;
            ops_skipped = !ops_skipped;
            state_bytes = Guard.state_used budget;
            parallel_depth = depth;
          } )
      in
      let rec loop i =
        if i = nfns then
          match (!route, side) with
          | Some (`Ports ports), _ ->
              if Header.decrement_hop_limit buf then
                finish (Engine.Forwarded ports)
              else finish (Engine.Dropped "hop-limit-expired")
          | Some `Local, _ -> finish Engine.Delivered
          | None, `Host -> finish Engine.Delivered
          | None, `Router -> finish (Engine.Dropped "no-forwarding-decision")
        else
          let fn = view.Packet.fns.(i) in
          let skip_tag =
            match (side, fn.Fn.tag) with
            | `Router, Fn.Host | `Host, Fn.Router -> true
            | `Router, Fn.Router | `Host, Fn.Host -> false
          in
          let skip () =
            incr ops_skipped;
            (match obs with Some o -> Obs.op_skip o fn.Fn.key | None -> ());
            loop (i + 1)
          in
          if skip_tag then skip ()
          else
            match Registry.find registry fn.Fn.key with
            | None ->
                if Engine.mandatory fn.Fn.key then
                  finish (Engine.Unsupported fn.Fn.key)
                else skip ()
            | Some impl -> (
                if not (Guard.charge_op budget) then
                  finish (Engine.Dropped "guard-ops-exhausted")
                else begin
                  incr ops_run;
                  executed.(i) <- true;
                  let ctx = { Registry.env; view; ingress; now; scratch; budget } in
                  (match obs with Some o -> Obs.op_run o fn.Fn.key | None -> ());
                  match impl fn (Packet.locations_field view fn) ctx with
                  | Registry.Continue -> loop (i + 1)
                  | Registry.Set_route ports ->
                      if !route = None then route := Some (`Ports ports);
                      loop (i + 1)
                  | Registry.Deliver_local ->
                      if !route = None then route := Some `Local;
                      loop (i + 1)
                  | Registry.Respond pkt -> finish (Engine.Responded pkt)
                  | Registry.Silent -> finish Engine.Quiet
                  | Registry.Abort reason ->
                      (match obs with
                      | Some o -> Obs.op_error o fn.Fn.key
                      | None -> ());
                      finish (Engine.Dropped reason)
                end)
      in
      loop 0

let process ?obs ?verify ~registry env ~now ~ingress buf =
  run ?obs ?verify ~registry ~side:`Router env ~now ~ingress buf

let host_process ?obs ?verify ~registry env ~now ~ingress buf =
  run ?obs ?verify ~registry ~side:`Host env ~now ~ingress buf

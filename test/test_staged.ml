(* The staged engine against the literal Algorithm 1 interpreter
   (Algorithm1_ref). Two identically configured nodes receive the same
   packets, one through Engine.process / Engine.host_process, the other
   through the oracle, and after every packet the harness requires the
   same verdict, the same [info], the same packet bytes, the same
   simulator actions, the same node counters and, with [?obs], the same
   per-opkey run/skip/error and verdict counts. It runs every Realize
   program, seeded random programs and byte-level mutations of both, on
   router and host nodes, with the full and restricted registries, with
   the program cache on, off and under eviction pressure, and with and
   without a [?verify] hook and an observer. The engine must never
   raise. *)

open Dip_core
open Programs
module Bitbuf = Dip_bitbuf.Bitbuf
module Ipaddr = Dip_tables.Ipaddr
module Prng = Dip_stdext.Prng
module Drkey = Dip_opt.Drkey
module Metrics = Dip_obs.Metrics

let master = Ops.default_registry ()

(* --- the two nodes ---------------------------------------------------- *)

let router ~cache =
  let env =
    Env.create ~cache_capacity:4 ~prog_cache_capacity:cache ~name:"r" ()
  in
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "0.0.0.0/1") 5;
  Dip_ip.Ipv6.add_route env.Env.v6_routes (Ipaddr.Prefix.of_string "2001:db8::/32") 2;
  Array.iteri
    (fun i n -> if i < 2 then Dip_tables.Name_fib.insert env.Env.fib n 3)
    names;
  Env.set_opt_identity env ~secret ~hop:1;
  Dip_xia.Router.add_route env.Env.xia dest_ad 4;
  Env.set_telemetry_identity env ~node_id:7 ~queue_depth:(fun () -> 3);
  Env.enable_pass env ~key:pass_key;
  Env.set_netfence env
    (Dip_netfence.Policer.create ~key:(Dip_crypto.Prf.key_of_string "staged-netfence!") ());
  ignore (Custody.enable env);
  env

let host ~cache =
  let env = Env.create ~prog_cache_capacity:cache ~name:"h" () in
  env.Env.local_v4 <- Some (v4 "10.0.0.1");
  env.Env.local_v6 <- Some (v6 "2001:db8::1");
  Env.register_opt_session env ~session_id
    ~session_keys:(Drkey.session_keys [ secret ] ~session_id)
    ~dest_key;
  env

(* --- byte mutations ------------------------------------------------ *)

(* Byte-level damage to the header and FN triples (and, now and then,
   anywhere or a truncation). *)
let mutate g s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  for _ = 1 to 1 + Prng.int g 3 do
    let hot = min n (6 + (6 * Char.code (Bytes.get b 1)) + 2) in
    let i = if Prng.int g 4 = 0 then Prng.int g n else Prng.int g (max 1 hot) in
    Bytes.set b i (Char.chr (Prng.int g 256))
  done;
  let s = Bytes.to_string b in
  if Prng.int g 5 = 0 then String.sub s 0 (Prng.int g (n + 1)) else s

(* --- one side of the comparison -------------------------------------- *)

type side = {
  env : Env.t;
  obs : Obs.t option;
  metrics : Metrics.t;
}

let make_side ~host:is_host ~cache ~observed =
  let env = if is_host then host ~cache else router ~cache in
  let metrics = Metrics.create () in
  let obs = if observed then Some (Obs.create ~sample_every:3 metrics) else None in
  { env; obs; metrics }

let show_verdict = function
  | Engine.Forwarded ps ->
      "forwarded " ^ String.concat "," (List.map string_of_int ps)
  | Engine.Delivered -> "delivered"
  | Engine.Responded b -> "responded " ^ Dip_stdext.Hex.encode (Bitbuf.to_string b)
  | Engine.Quiet -> "quiet"
  | Engine.Dropped r -> "dropped " ^ r
  | Engine.Unsupported k -> "unsupported " ^ Opkey.name k

let show_action = function
  | Dip_netsim.Sim.Forward (p, b) ->
      Printf.sprintf "forward %d %s" p (Dip_stdext.Hex.encode (Bitbuf.to_string b))
  | Dip_netsim.Sim.Drop r -> "drop " ^ r
  | Dip_netsim.Sim.Consume -> "consume"

let show_info (i : Engine.info) =
  Printf.sprintf "run %d skipped %d state %d depth %d" i.Engine.ops_run
    i.Engine.ops_skipped i.Engine.state_bytes i.Engine.parallel_depth

(* How often each verdict class came out, over the whole run: the
   last test checks that the comparisons were not all of one kind. *)
let seen = Hashtbl.create 8

let tally v =
  let k = List.hd (String.split_on_char ' ' (show_verdict v)) in
  Hashtbl.replace seen k (1 + Option.value ~default:0 (Hashtbl.find_opt seen k))

(* Everything observable after one packet, as strings. *)
let observe s ~verdict ~info ~buf ~actions =
  Env.publish_cache_stats s.env;
  let counts =
    List.filter
      (fun (n, _) -> not (String.ends_with ~suffix:".ns" n))
      (Metrics.written_counters s.metrics)
  in
  [
    ("verdict", show_verdict verdict);
    ("info", show_info info);
    ("bytes", Dip_stdext.Hex.encode (Bitbuf.to_string buf));
    ("actions", String.concat "; " (List.map show_action actions));
    ( "env counters",
      String.concat "; "
        (List.map
           (fun (n, v) -> Printf.sprintf "%s=%d" n v)
           (Dip_netsim.Stats.Counters.to_list s.env.Env.counters)) );
    ( "obs counters",
      String.concat "; " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) counts) );
  ]

type config = {
  is_host : bool;
  cache : int;
  observed : bool;
  registry : Registry.t;
  verified : bool;
}

let show_config c =
  Printf.sprintf "%s, cache %d, %s, %d ops%s" (if c.is_host then "host" else "router")
    c.cache (if c.observed then "obs" else "no obs")
    (List.length (Registry.supported c.registry))
    (if c.verified then ", verify" else "")

(* A staged node and an oracle node configured alike, and their feed,
   packet by packet: it fails at the first packet on which anything
   differs, and returns what it observed. *)
let sides c =
  let staged = make_side ~host:c.is_host ~cache:c.cache ~observed:c.observed in
  let oracle = make_side ~host:c.is_host ~cache:c.cache ~observed:c.observed in
  let verify =
    if c.verified then Some (Dip_analysis.verifier ~registry:c.registry ()) else None
  in
  let count = ref 0 in
  staged, oracle, fun raw ->
      let i = !count in
      incr count;
      let now = 0.25 *. float_of_int i in
      let ingress = i mod 3 in
      let a = Bitbuf.of_string raw and b = Bitbuf.of_string raw in
      let run_staged () =
        let go = if c.is_host then Engine.host_process else Engine.process in
        go ?obs:staged.obs ?verify ~registry:c.registry staged.env ~now ~ingress a
      in
      let va, ia =
        try run_staged ()
        with e ->
          Alcotest.failf "[%s] packet %d (%s): the staged engine raised %s"
            (show_config c) i (Dip_stdext.Hex.encode raw) (Printexc.to_string e)
      in
      let go =
        if c.is_host then Algorithm1_ref.host_process else Algorithm1_ref.process
      in
      let vb, ib = go ?obs:oracle.obs ?verify ~registry:c.registry oracle.env ~now ~ingress b in
      tally va;
      let aa = Engine.actions_of_verdict staged.env ~ingress a va in
      let ab = Engine.actions_of_verdict oracle.env ~ingress b vb in
      let got = observe staged ~verdict:va ~info:ia ~buf:a ~actions:aa in
      let want = observe oracle ~verdict:vb ~info:ib ~buf:b ~actions:ab in
      List.iter2
        (fun (what, g) (_, w) ->
          if g <> w then
            Alcotest.failf "[%s] packet %d (%s): %s differ\n  staged: %s\n  oracle: %s"
              (show_config c) i (Dip_stdext.Hex.encode raw) what g w)
        got want;
      got

let pair c =
  let _, _, feed = sides c in
  fun raw -> ignore (feed raw : (string * string) list)

let differential c packets = List.iter (pair c) packets

let registries g =
  let some =
    Registry.restrict master (List.filter (fun _ -> Prng.int g 2 = 0) Opkey.all)
  in
  [ master; some; Registry.restrict master [ Opkey.F_32_match; Opkey.F_fib ] ]

let configs g =
  List.concat_map
    (fun registry ->
      List.concat_map
        (fun is_host ->
          List.concat_map
            (fun cache ->
              List.map
                (fun observed ->
                  { is_host; cache; observed; registry; verified = Prng.int g 3 = 0 })
                [ false; true ])
            [ 512; 0; 3 ])
        [ false; true ])
    (registries g)

(* --- properties ---------------------------------------------------- *)

(* Every realization, twice (the second pass hits the cache), each
   also with its parallel flag set. *)
let test_realized () =
  let g = Prng.create 11L in
  let base = realized () in
  let parallel =
    List.map
      (fun s ->
        let b = Bytes.of_string s in
        Bytes.set b 4 (Char.chr (Char.code (Bytes.get b 4) lor 1));
        Bytes.to_string b)
      base
  in
  let packets = base @ parallel @ base @ parallel in
  List.iter (fun c -> differential c packets) (configs g)

let test_random_programs () =
  let g = Prng.create 12L in
  List.iter
    (fun c ->
      (* A pool smaller than the run, so programs repeat and hit. *)
      let pool = Array.init 12 (fun _ -> random_program g) in
      differential c (List.init 60 (fun _ -> pool.(Prng.int g 12))))
    (configs g)

let test_mutations () =
  let g = Prng.create 13L in
  let base = Array.of_list (realized ()) in
  List.iter
    (fun c ->
      let packets =
        List.init 80 (fun i ->
            let s =
              if i mod 2 = 0 then base.(Prng.int g (Array.length base))
              else random_program g
            in
            (* Repeat a mutant now and then so damaged programs also
               reach the cache. *)
            if Prng.int g 3 = 0 then s else mutate g s)
      in
      differential c (packets @ packets))
    (configs g)

(* Adversarial inputs for the operation bodies that parse their own
   regions: 10k seeded mutations of OPT, NDN+OPT, EPIC and XIA packets
   (FN definitions, locations, truncations), each through
   Engine.process on a router and Engine.host_process on a host.
   Neither may raise, and each gives the oracle's verdict and bytes
   (the full [pair] comparison is too slow for 20k runs). *)
let test_adversarial () =
  let g = Prng.create 14L in
  let base = Array.of_list (region_parsers ()) in
  let packets =
    List.init 10_000 (fun _ -> adversarial g base.(Prng.int g (Array.length base)))
  in
  List.iter
    (fun is_host ->
      let node () = if is_host then host ~cache:512 else router ~cache:512 in
      let staged = node () and oracle = node () in
      let go = if is_host then Engine.host_process else Engine.process in
      let go_ref = if is_host then Algorithm1_ref.host_process else Algorithm1_ref.process in
      List.iteri
        (fun i raw ->
          let a = Bitbuf.of_string raw and b = Bitbuf.of_string raw in
          let now = 0.25 *. float_of_int i and ingress = i mod 3 in
          let va, _ =
            try go ~registry:master staged ~now ~ingress a
            with e ->
              Alcotest.failf "packet %d (%s): %s raised %s" i (Dip_stdext.Hex.encode raw)
                (if is_host then "host_process" else "process")
                (Printexc.to_string e)
          in
          let vb, _ = go_ref ~registry:master oracle ~now ~ingress b in
          tally va;
          if show_verdict va <> show_verdict vb || not (Bitbuf.equal a b) then
            Alcotest.failf "packet %d (%s): %s vs oracle %s" i (Dip_stdext.Hex.encode raw)
              (show_verdict va) (show_verdict vb))
        packets)
    [ false; true ]

(* Direct registry changes between packets of one cached program: the
   staged engine must recompile, and its verify memo re-check, exactly
   where the oracle decides afresh. *)
let test_registry_change () =
  let registry = Registry.restrict master Opkey.all in
  let pkt = List.hd (realized ()) in
  List.iter
    (fun verified ->
      let registry = Registry.restrict registry Opkey.all in
      let feed =
        pair { is_host = false; cache = 512; observed = true; registry; verified }
      in
      feed pkt;
      feed pkt;
      Registry.install registry Opkey.F_32_match (fun _ _ _ -> Registry.Abort "replaced");
      feed pkt;
      Registry.uninstall registry Opkey.F_source;
      feed pkt;
      Registry.uninstall registry Opkey.F_32_match;
      feed pkt;
      Registry.install registry Opkey.F_32_match (Option.get (Registry.find master Opkey.F_32_match));
      feed pkt)
    [ false; true ]

(* Programs under many next headers through caches of 1 to 8 entries,
   so the entries of one FN program come and go while they share its
   compiled program and verify memo (a flipped parallel flag makes
   another FN program); direct registry changes and
   Control Enable_op/Disable_op commands come between packets. The
   working set of 3 programs changes every 40 packets. *)
let test_next_header_variants () =
  let g = Prng.create 16L in
  let pool = Array.of_list (realized () @ List.init 10 (fun _ -> random_program g)) in
  let keys = Array.of_list Opkey.all in
  let control_key = Dip_crypto.Prf.key_of_string "staged-control-0" in
  List.iter
    (fun is_host ->
      for cache = 1 to 8 do
        let registry = Registry.restrict master Opkey.all in
        let c =
          { is_host; cache; observed = cache mod 2 = 0; registry; verified = Prng.int g 2 = 0 }
        in
        let staged, oracle, feed = sides c in
        (* The oracle parses through its cache, as the engine does; a
           third node parses every packet cold. *)
        let cold = make_side ~host:is_host ~cache:0 ~observed:false in
        let verify =
          if c.verified then Some (Dip_analysis.verifier ~registry ()) else None
        in
        let go_cold = if is_host then Algorithm1_ref.host_process else Algorithm1_ref.process in
        let states =
          List.map (fun s -> (s, Control.initial_state ())) [ staged; oracle; cold ]
        in
        let working = Array.make 3 "" and fed = ref 0 in
        for i = 0 to 399 do
          if i mod 40 = 0 then
            Array.iteri (fun j _ -> working.(j) <- pool.(Prng.int g (Array.length pool))) working;
          let k = keys.(Prng.int g (Array.length keys)) in
          match Prng.int g 30 with
          | 0 ->
              if Prng.int g 2 = 0 then Registry.uninstall registry k
              else Registry.install registry k (Option.get (Registry.find master k))
          | 1 ->
              let cmd = if Prng.int g 2 = 0 then Control.Enable_op k else Control.Disable_op k in
              let pkt = Control.encode ~key:control_key ~seq:(Int64.of_int i) cmd in
              List.iter
                (fun (s, state) ->
                  match
                    Control.apply ~key:control_key ~state ~env:s.env ~registry ~master
                      (Bitbuf.copy pkt)
                  with
                  | Ok _ -> ()
                  | Error e -> Alcotest.failf "[%s] control: %s" (show_config c) e)
                states
          | _ ->
              let b = Bytes.of_string working.(Prng.int g 3) in
              Bytes.set b 0 (Char.chr (Prng.int g 12));
              (* Now and then the parallel flag: another FN program. *)
              if Prng.int g 4 = 0 then Bytes.set b 4 (Char.chr (Char.code (Bytes.get b 4) lxor 1));
              let raw = Bytes.to_string b in
              let got = feed raw in
              (* The feed's clock and ingress for its [n]th packet. *)
              let n = !fed and buf = Bitbuf.of_string raw in
              incr fed;
              let now = 0.25 *. float_of_int n and ingress = n mod 3 in
              let v, info = go_cold ?verify ~registry cold.env ~now ~ingress buf in
              ignore (Engine.actions_of_verdict cold.env ~ingress buf v);
              List.iter2
                (fun what w ->
                  if List.assoc what got <> w then
                    Alcotest.failf "[%s] packet %d (%s): %s differ from the cold parse"
                      (show_config c) n (Dip_stdext.Hex.encode raw) what)
                [ "verdict"; "info"; "bytes" ]
                [ show_verdict v; show_info info; Dip_stdext.Hex.encode (Bitbuf.to_string buf) ]
        done
      done)
    [ false; true ]

let test_coverage () =
  List.iter
    (fun k ->
      let n = Option.value ~default:0 (Hashtbl.find_opt seen k) in
      if n = 0 then Alcotest.failf "no packet was %s" k)
    [ "forwarded"; "delivered"; "responded"; "quiet"; "dropped"; "unsupported" ]

let () =
  Alcotest.run "staged"
    [
      ( "staged = algorithm 1",
        [
          Alcotest.test_case "every realization" `Quick test_realized;
          Alcotest.test_case "random programs" `Quick test_random_programs;
          Alcotest.test_case "byte mutations never raise" `Quick test_mutations;
          Alcotest.test_case "MAC and DAG regions, 10k mutations" `Quick test_adversarial;
          Alcotest.test_case "direct registry change" `Quick test_registry_change;
          Alcotest.test_case "next-header variants" `Quick test_next_header_variants;
          Alcotest.test_case "every verdict class compared" `Quick test_coverage;
        ] );
    ]

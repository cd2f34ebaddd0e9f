(* Tests for the runtime control plane: authenticated FN upgrades,
   replay protection, and the end-to-end dynamic-policy scenario the
   paper sketches (§2.4, §5). *)

open Dip_core
module Bitbuf = Dip_bitbuf.Bitbuf
module Sim = Dip_netsim.Sim
module Name = Dip_tables.Name

let controller_key = Dip_crypto.Prf.key_of_string "controller-key-0"
let wrong_key = Dip_crypto.Prf.key_of_string "not-the-operator"

let fresh () =
  let env = Env.create ~name:"r" () in
  let master = Ops.default_registry () in
  let registry = Registry.restrict master (Registry.supported master) in
  (env, registry, master, Control.initial_state ())

let test_encode_is_control () =
  let pkt = Control.encode ~key:controller_key ~seq:1L Control.Disable_pass in
  Alcotest.(check bool) "control" true (Control.is_control pkt);
  Alcotest.(check bool) "data packet is not" false
    (Control.is_control
       (Realize.ndn_interest ~name:(Name.of_string "/a") ~payload:"" ()));
  (* Control and error notifications use distinct next-header codes. *)
  Alcotest.(check bool) "distinct from ICMP-like" false
    (Errors.is_control pkt)

let test_roundtrip_commands () =
  let env, registry, master, state = fresh () in
  List.iteri
    (fun i cmd ->
      let pkt = Control.encode ~key:controller_key ~seq:(Int64.of_int (i + 1)) cmd in
      match Control.apply ~key:controller_key ~state ~env ~registry ~master pkt with
      | Ok applied ->
          Alcotest.(check bool)
            (Format.asprintf "roundtrip %a" Control.pp_command cmd)
            true
            (cmd = applied)
      | Error e -> Alcotest.failf "command rejected: %s" e)
    [
      Control.Disable_op Opkey.F_pit;
      Control.Enable_op Opkey.F_pit;
      Control.Enable_pass (String.make 16 'p');
      Control.Disable_pass;
    ]

let test_enable_disable_op () =
  let env, registry, master, state = fresh () in
  let apply seq cmd =
    Control.apply ~key:controller_key ~state ~env ~registry ~master
      (Control.encode ~key:controller_key ~seq cmd)
  in
  Alcotest.(check bool) "initially supported" true
    (Registry.supports registry Opkey.F_mac);
  ignore (apply 1L (Control.Disable_op Opkey.F_mac));
  Alcotest.(check bool) "disabled" false (Registry.supports registry Opkey.F_mac);
  ignore (apply 2L (Control.Enable_op Opkey.F_mac));
  Alcotest.(check bool) "re-enabled from the master image" true
    (Registry.supports registry Opkey.F_mac)

let test_enable_pass_via_control () =
  let env, registry, master, state = fresh () in
  Alcotest.(check bool) "off" false env.Env.pass_enabled;
  (match
     Control.apply ~key:controller_key ~state ~env ~registry ~master
       (Control.encode ~key:controller_key ~seq:1L
          (Control.Enable_pass (String.make 16 'k')))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "on" true env.Env.pass_enabled

let test_policer_mode_via_control () =
  let env, registry, master, state = fresh () in
  (* Without a policer the command is refused. *)
  (match
     Control.apply ~key:controller_key ~state ~env ~registry ~master
       (Control.encode ~key:controller_key ~seq:1L Control.Policer_mode_police)
   with
  | Error "no policer installed" -> ()
  | _ -> Alcotest.fail "must refuse without a policer");
  Env.set_netfence env
    (Dip_netfence.Policer.create ~key:(Dip_crypto.Prf.key_of_string "bottleneck-key-0") ());
  (match
     Control.apply ~key:controller_key ~state ~env ~registry ~master
       (Control.encode ~key:controller_key ~seq:2L Control.Policer_mode_police)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match env.Env.netfence with
  | Some p ->
      Alcotest.(check bool) "attack mode" true
        (Dip_netfence.Policer.mode p = Dip_netfence.Policer.Police)
  | None -> Alcotest.fail "policer vanished"

let test_rejects_wrong_key () =
  let env, registry, master, state = fresh () in
  let forged = Control.encode ~key:wrong_key ~seq:1L Control.Disable_pass in
  match Control.apply ~key:controller_key ~state ~env ~registry ~master forged with
  | Error "control MAC verification failed" -> ()
  | _ -> Alcotest.fail "forged command must be rejected"

let test_rejects_replay () =
  let env, registry, master, state = fresh () in
  let pkt = Control.encode ~key:controller_key ~seq:5L Control.Disable_pass in
  (match Control.apply ~key:controller_key ~state ~env ~registry ~master pkt with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* The same packet again, and an older sequence number, are stale. *)
  (match Control.apply ~key:controller_key ~state ~env ~registry ~master pkt with
  | Error "replayed or stale command" -> ()
  | _ -> Alcotest.fail "replay must be rejected");
  let older = Control.encode ~key:controller_key ~seq:4L Control.Disable_pass in
  match Control.apply ~key:controller_key ~state ~env ~registry ~master older with
  | Error "replayed or stale command" -> ()
  | _ -> Alcotest.fail "stale sequence must be rejected"

let test_rejects_tampered_command () =
  let env, registry, master, state = fresh () in
  let pkt = Control.encode ~key:controller_key ~seq:1L (Control.Disable_op Opkey.F_mac) in
  (* Flip a byte of the command body. *)
  let pos = Bitbuf.length pkt - 18 in
  Bitbuf.set_uint8 pkt pos (Bitbuf.get_uint8 pkt pos lxor 1);
  match Control.apply ~key:controller_key ~state ~env ~registry ~master pkt with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered command must be rejected"

(* End to end over the simulator: the operator upgrades a router from
   plain IP to OPT support at runtime — "support new services by only
   upgrading FNs" (§5). *)
let test_runtime_upgrade_scenario () =
  let master = Ops.default_registry () in
  let registry =
    Registry.restrict master [ Opkey.F_32_match; Opkey.F_source ]
  in
  let env = Env.create ~name:"r" () in
  Env.set_opt_identity env
    ~secret:(Dip_opt.Drkey.secret_of_string "router-secret-00") ~hop:1;
  Dip_ip.Ipv4.add_route env.Env.v4_routes
    (Dip_tables.Ipaddr.Prefix.of_string "0.0.0.0/0") 1;
  let sim = Sim.create () in
  let node =
    Sim.add_node sim ~name:"r"
      (Control.handler ~key:controller_key ~env ~registry ~master
         (Engine.handler ~registry env))
  in
  let sink = Sim.add_node sim ~name:"sink" (fun _ ~now:_ ~ingress:_ _ -> [ Sim.Consume ]) in
  Sim.connect sim (node, 0) (sink, 0);
  let opt_pkt () =
    Realize.opt ~hops:1 ~session_id:1L ~timestamp:0l
      ~dest_key:(String.make 16 'k') ~payload:"" ()
  in
  (* Before the upgrade: OPT packets bounce with FN-unsupported. *)
  Sim.inject sim ~at:0.0 ~node ~port:0 (opt_pkt ());
  Sim.run sim;
  Alcotest.(check int) "unsupported before upgrade" 1
    (Dip_netsim.Stats.Counters.get env.Env.counters "dip.unsupported.F_parm");
  (* The operator pushes Enable_op commands. *)
  List.iteri
    (fun i k ->
      Sim.inject sim ~at:(1.0 +. float_of_int i) ~node ~port:0
        (Control.encode ~key:controller_key ~seq:(Int64.of_int (i + 1))
           (Control.Enable_op k)))
    [ Opkey.F_parm; Opkey.F_mac; Opkey.F_mark ];
  Sim.run sim;
  Alcotest.(check int) "three commands applied" 3
    (Dip_netsim.Stats.Counters.get env.Env.counters "control.applied");
  (* After the upgrade the same packet is processed. Note: OPT alone
     proposes no route, so the engine now reports no-decision rather
     than unsupported — the FN executed. *)
  Sim.inject sim ~at:10.0 ~node ~port:0 (opt_pkt ());
  Sim.run sim;
  Alcotest.(check int) "no new unsupported" 1
    (Dip_netsim.Stats.Counters.get env.Env.counters "dip.unsupported.F_parm")

let () =
  Alcotest.run "control"
    [
      ( "codec",
        [
          Alcotest.test_case "is_control" `Quick test_encode_is_control;
          Alcotest.test_case "command roundtrip" `Quick test_roundtrip_commands;
        ] );
      ( "execution",
        [
          Alcotest.test_case "enable/disable op" `Quick test_enable_disable_op;
          Alcotest.test_case "enable pass" `Quick test_enable_pass_via_control;
          Alcotest.test_case "policer mode" `Quick test_policer_mode_via_control;
        ] );
      ( "security",
        [
          Alcotest.test_case "wrong key" `Quick test_rejects_wrong_key;
          Alcotest.test_case "replay" `Quick test_rejects_replay;
          Alcotest.test_case "tampered" `Quick test_rejects_tampered_command;
        ] );
      ( "scenario",
        [ Alcotest.test_case "runtime FN upgrade" `Quick test_runtime_upgrade_scenario ] );
    ]

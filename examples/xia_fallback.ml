(* XIA over DIP (paper §3): DAG addresses with fallback routing,
   realized with the F_DAG and F_intent operation modules.

     dune exec examples/xia_fallback.exe

   The client addresses a service SID with a fallback path through
   the destination AD and host. A transit router that has never heard
   of the SID still forwards the packet — fallback picks the AD edge —
   and the service's host delivers on the intent. *)

open Dip_core
open Dip_xia
module Sim = Dip_netsim.Sim

let () =
  let registry = Ops.default_registry () in
  let svc = Xid.of_name Xid.SID "video-service" in
  let dest_ad = Xid.of_name Xid.AD "dest-as" in
  let dest_host = Xid.of_name Xid.HID "dest-host" in

  (* source → SID (direct intent), falling back to AD → HID → SID. *)
  let dag = Dag.fallback ~intent:svc ~via:[ dest_ad; dest_host ] in
  Format.printf "address: %a@." Dag.pp dag;
  List.iteri
    (fun i succs ->
      Printf.printf "  node %d -> [%s]%s\n" i
        (String.concat "; " (List.map string_of_int succs))
        (if i = 0 then "  (virtual source)"
         else if i = Dag.intent_index dag then "  (intent)"
         else ""))
    (List.init (Dag.node_count dag + 1) (Dag.successors dag));

  let sim = Sim.create () in
  let delivered = ref [] in
  Sim.on_consume sim (fun node time pkt -> delivered := (node, time, pkt) :: !delivered);

  (* Transit: routes ADs only — the fallback case. *)
  let transit = Env.create ~name:"transit" () in
  Router.add_route transit.Env.xia dest_ad 1;

  (* Border router of the destination AD: owns the AD, routes HIDs. *)
  let border = Env.create ~name:"border" () in
  Router.add_local border.Env.xia dest_ad;
  Router.add_route border.Env.xia dest_host 1;

  (* The destination host owns its HID and hosts the SID. *)
  let host = Env.create ~name:"host" () in
  Router.add_local host.Env.xia dest_host;
  Router.add_local host.Env.xia svc;

  let t = Sim.add_node sim ~name:"transit" (Engine.handler ~registry transit) in
  let b = Sim.add_node sim ~name:"border" (Engine.handler ~registry border) in
  let h = Sim.add_node sim ~name:"host" (Engine.handler ~registry host) in
  Sim.connect sim (t, 1) (b, 0);
  Sim.connect sim (b, 1) (h, 0);

  let pkt = Realize.xia ~dag ~payload:"GET /video" () in
  Printf.printf "\nDIP-XIA packet: %d-byte header\n"
    (Result.get_ok (Packet.header_size pkt));
  Sim.inject sim ~at:0.0 ~node:t ~port:0 pkt;
  Sim.run sim;

  (match List.rev !delivered with
  | [ (node, _, _) ] ->
      Printf.printf "delivered at %s via fallback (transit knew only the AD)\n"
        (Sim.node_name sim node);
      assert (node = h)
  | _ -> failwith "xia_fallback: not delivered");

  (* Now show the priority order: teach the transit router the SID
     directly and watch the pointer skip the fallback chain. *)
  let transit2 = Env.create ~name:"transit2" () in
  Router.add_route transit2.Env.xia svc 9;
  let pkt2 = Realize.xia ~dag ~payload:"GET /video" () in
  (match Engine.process ~registry transit2 ~now:0.0 ~ingress:0 pkt2 with
  | Engine.Forwarded [ 9 ], _ ->
      print_endline "with a direct SID route, the intent edge wins (no fallback)"
  | _ -> failwith "expected direct intent routing");
  ignore (b)

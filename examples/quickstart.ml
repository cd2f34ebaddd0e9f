(* Quickstart: realize canonical IP forwarding with DIP (paper §3)
   and push a packet through a three-router chain in the simulator.

     dune exec examples/quickstart.exe

   A DIP-32 packet carries two Field Operations —
   (loc: 0, len: 32, key: 1) for the destination match and
   (loc: 32, len: 32, key: 3) for the source — and each router runs
   Algorithm 1 over them. *)

open Dip_core
module Sim = Dip_netsim.Sim
module Ipaddr = Dip_tables.Ipaddr

let () =
  let registry = Ops.default_registry () in
  let v4 = Ipaddr.V4.of_string in

  (* Three routers, each with a route for the destination prefix
     pointing at its "right-hand" port 1. *)
  let sim = Sim.create () in
  let delivered = ref [] in
  Sim.on_consume sim (fun node time pkt -> delivered := (node, time, pkt) :: !delivered);
  let router i =
    let env = Env.create ~name:(Printf.sprintf "r%d" i) () in
    Dip_ip.Ipv4.add_route env.Env.v4_routes
      (Ipaddr.Prefix.of_string "10.9.0.0/16")
      1;
    Engine.handler ~registry env
  in
  let host =
    let env = Env.create ~name:"server" () in
    env.Env.local_v4 <- Some (v4 "10.9.0.42");
    Engine.handler ~registry env
  in
  let r1 = Sim.add_node sim ~name:"r1" (router 1) in
  let r2 = Sim.add_node sim ~name:"r2" (router 2) in
  let r3 = Sim.add_node sim ~name:"r3" (router 3) in
  let server = Sim.add_node sim ~name:"server" host in
  Sim.connect sim ~latency:1e-3 (r1, 1) (r2, 0);
  Sim.connect sim ~latency:1e-3 (r2, 1) (r3, 0);
  Sim.connect sim ~latency:1e-3 (r3, 1) (server, 0);

  (* Host construction (§2.3): build the DIP-32 packet. *)
  let packet =
    Realize.ipv4 ~src:(v4 "192.0.2.7") ~dst:(v4 "10.9.0.42")
      ~payload:"hello through the narrow waist" ()
  in
  Printf.printf "DIP-32 packet: %d-byte header (Table 2 says 26), %d bytes total\n"
    (match Packet.header_size packet with Ok n -> n | Error _ -> -1)
    (Dip_bitbuf.Bitbuf.length packet);
  Format.printf "%a" Dip_bitbuf.Bitbuf.pp packet;

  Sim.inject sim ~at:0.0 ~node:r1 ~port:0 packet;
  Sim.run sim;

  (match List.rev !delivered with
  | [ (node, time, pkt) ] ->
      let view = Result.get_ok (Packet.parse pkt) in
      Printf.printf
        "\ndelivered to %s after %.1f ms across 3 DIP routers\n"
        (Sim.node_name sim node) (1000.0 *. time);
      Printf.printf "payload: %S\n" (Packet.payload view);
      Printf.printf "hop limit on arrival: %d (started at 64)\n"
        view.Packet.header.Header.hop_limit
  | _ -> failwith "quickstart: packet was not delivered");

  print_endline "\nper-node counters:";
  List.iter
    (fun (k, v) -> Printf.printf "  %-24s %d\n" k v)
    (Dip_netsim.Stats.Counters.to_list (Sim.counters sim))

(* Incremental deployment (paper §2.4): two DIP domains joined across
   a DIP-agnostic IPv4 domain by tunneling, plus the DHCP/BGP-style
   FN bootstrap that tells a host what it may use on a path.

     dune exec examples/incremental_deployment.exe *)

open Dip_core
module Sim = Dip_netsim.Sim
module Ipaddr = Dip_tables.Ipaddr

let v4 = Ipaddr.V4.of_string

let () =
  let registry = Ops.default_registry () in

  (* --- FN bootstrap across ASes (§2.3/§2.4) --- *)
  print_endline "== FN discovery ==";
  let world = Bootstrap.create () in
  let full = Registry.supported registry in
  Bootstrap.add_as world 100 full;
  Bootstrap.add_as world 200 [ Opkey.F_32_match; Opkey.F_source ] (* legacy-ish *);
  Bootstrap.add_as world 300 full;
  Bootstrap.link world 100 200;
  Bootstrap.link world 200 300;
  Printf.printf "AS100 offers %d FNs to attached hosts\n"
    (List.length (Bootstrap.local_offer world 100));
  (match Bootstrap.path_supported world ~src:100 ~dst:300 with
  | Some keys ->
      Printf.printf "usable on the path 100->200->300: %s\n"
        (String.concat ", " (List.map Opkey.name keys));
      (match Bootstrap.plan ~required:[ Opkey.F_parm; Opkey.F_mac; Opkey.F_mark ] ~offered:keys with
      | Ok () -> print_endline "OPT available end-to-end"
      | Error missing ->
          Printf.printf "OPT NOT available end-to-end; AS200 lacks: %s\n"
            (String.concat ", " (List.map Opkey.name missing)))
  | None -> print_endline "unreachable");

  (* --- Tunneling across the legacy domain --- *)
  print_endline "\n== DIP-in-IPv4 tunnel across the legacy core ==";
  let sim = Sim.create () in
  let delivered = ref [] in
  Sim.on_consume sim (fun node time pkt -> delivered := (node, time, pkt) :: !delivered);

  (* Left DIP border router: encapsulates toward the right border. *)
  let left_tunnel_src = v4 "198.51.100.1" in
  let right_tunnel_dst = v4 "198.51.100.2" in
  let left_border _sim ~now:_ ~ingress:_ pkt =
    let tunneled =
      Compat.encapsulate_ipv4 ~src:left_tunnel_src ~dst:right_tunnel_dst pkt
    in
    [ Sim.Forward (1, tunneled) ]
  in

  (* Legacy core: a plain IPv4 router that has no idea about DIP. *)
  let legacy_table = Dip_tables.Fib.V4.create () in
  Dip_ip.Ipv4.add_route legacy_table (Ipaddr.Prefix.of_string "198.51.100.2/32") 1;
  let legacy = Dip_ip.Ipv4.handler legacy_table in

  (* Right border: decapsulates and processes the inner DIP packet. *)
  let renv = Env.create ~name:"right-dip" () in
  Dip_ip.Ipv4.add_route renv.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
  let right_border sim_ ~now ~ingress pkt =
    match Compat.decapsulate_ipv4 pkt with
    | Error e -> [ Sim.Drop e ]
    | Ok inner -> Engine.handler ~registry renv sim_ ~now ~ingress inner
  in

  (* Destination host. *)
  let henv = Env.create ~name:"server" () in
  henv.Env.local_v4 <- Some (v4 "10.7.7.7");

  let lb = Sim.add_node sim ~name:"left-border" left_border in
  let core = Sim.add_node sim ~name:"legacy-core" legacy in
  let rb = Sim.add_node sim ~name:"right-border" right_border in
  let server = Sim.add_node sim ~name:"server" (Engine.handler ~registry henv) in
  Sim.connect sim (lb, 1) (core, 0);
  Sim.connect sim (core, 1) (rb, 0);
  Sim.connect sim (rb, 1) (server, 0);

  let dip_packet =
    Realize.ipv4 ~src:(v4 "10.1.0.1") ~dst:(v4 "10.7.7.7")
      ~payload:"through the legacy core" ()
  in
  Sim.inject sim ~at:0.0 ~node:lb ~port:0 dip_packet;
  Sim.run sim;

  (match List.rev !delivered with
  | [ (node, _, pkt) ] ->
      Printf.printf "inner DIP packet delivered at %s; payload %S\n"
        (Sim.node_name sim node)
        (Packet.payload (Result.get_ok (Packet.parse pkt)));
      assert (node = server)
  | l -> failwith (Printf.sprintf "expected 1 delivery, got %d" (List.length l)));

  (* --- Strip/restore at a legacy boundary (§2.4) --- *)
  print_endline "\n== strip / restore at the border ==";
  let stripped = Result.get_ok (Compat.strip dip_packet) in
  Printf.printf "stripped to %d bytes (locations+payload only)\n"
    (Dip_bitbuf.Bitbuf.length stripped);
  let restored =
    Result.get_ok
      (Compat.restore
         ~fns:
           [
             Fn.v ~loc:0 ~len:32 Opkey.F_32_match;
             Fn.v ~loc:32 ~len:32 Opkey.F_source;
           ]
         ~loc_len:8 stripped)
  in
  Printf.printf "restored DIP header: %d bytes\n"
    (Result.get_ok (Packet.header_size restored));
  print_endline "done"

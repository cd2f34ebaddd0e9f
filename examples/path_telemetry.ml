(* In-band path telemetry with the F_tel extension (key 14).

     dune exec examples/path_telemetry.exe

   §5 lists "efficient network telemetry" among the opportunities DIP
   opens. Here a probe packet crosses a four-router chain whose third
   link is congested by cross-traffic; every router appends an
   INT-style record (node id, timestamp, live egress-queue depth) to
   the probe's FN locations, and the receiving host reads the whole
   path out of the packet — pinpointing the congested hop without any
   per-router polling. *)

open Dip_core
module Sim = Dip_netsim.Sim
module Ipaddr = Dip_tables.Ipaddr

let v4 = Ipaddr.V4.of_string
let hops = 4

let () =
  let registry = Ops.default_registry () in
  let sim = Sim.create () in
  let delivered = ref [] in
  Sim.on_consume sim (fun node time pkt -> delivered := (node, time, pkt) :: !delivered);

  (* Routers forward 10.0.0.0/8 down the chain and stamp telemetry
     with their *live* egress queue depth. *)
  let envs =
    List.init hops (fun i ->
        let env = Env.create ~name:(Printf.sprintf "r%d" (i + 1)) () in
        Dip_ip.Ipv4.add_route env.Env.v4_routes
          (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
        env)
  in
  let ids =
    List.map
      (fun env -> Sim.add_node sim ~name:env.Env.name (Engine.handler ~registry env))
      envs
  in
  List.iteri
    (fun i env ->
      let node = List.nth ids i in
      Env.set_telemetry_identity env ~node_id:(i + 1) ~queue_depth:(fun () ->
          Sim.queue_depth sim node 1))
    envs;
  let sink = Sim.add_node sim ~name:"sink" (fun _ ~now:_ ~ingress:_ _ -> [ Sim.Consume ]) in
  (* Wire the chain; the link out of r3 is slow (the bottleneck). *)
  let rec wire = function
    | a :: (b :: _ as rest) ->
        let bw = if List.length rest = 2 then 50_000.0 else 1.25e7 in
        Sim.connect sim ~latency:1e-4 ~bandwidth:bw (a, 1) (b, 0);
        wire rest
    | [ last ] -> Sim.connect sim ~latency:1e-4 ~bandwidth:1.25e7 (last, 1) (sink, 0)
    | [] -> ()
  in
  wire ids;

  (* Cross traffic floods r3's egress. *)
  for i = 0 to 199 do
    Sim.inject sim
      ~at:(1e-5 *. float_of_int i)
      ~node:(List.nth ids 2) ~port:0
      (Realize.ipv4 ~src:(v4 "198.51.100.9") ~dst:(v4 "10.0.0.9")
         ~payload:(String.make 900 'c') ())
  done;

  (* The probe follows mid-burst. *)
  let probe =
    Realize.ipv4_telemetry ~max_hops:hops ~src:(v4 "192.0.2.1")
      ~dst:(v4 "10.0.0.9") ~payload:"probe" ()
  in
  Sim.inject sim ~at:1e-3 ~node:(List.hd ids) ~port:0 probe;
  Sim.run sim;

  (* Read the telemetry out of the delivered probe. *)
  let probe_records =
    List.find_map
      (fun (_, _, pkt) ->
        match Packet.parse pkt with
        | Ok view when view.Packet.header.Header.fn_loc_len > 8 ->
            let region_bytes = Telemetry.region_size ~max_hops:hops in
            Some (fst (Telemetry.read pkt ~base:view.Packet.loc_base ~region_bytes))
        | _ -> None)
      (List.rev !delivered)
  in
  match probe_records with
  | None -> failwith "probe never arrived"
  | Some records ->
      Printf.printf "probe path report (%d hops):\n" (List.length records);
      List.iter
        (fun r ->
          Printf.printf "  router %d: t=%ld us queue=%d%s\n" r.Telemetry.node_id
            r.Telemetry.timestamp r.Telemetry.queue_depth
            (if r.Telemetry.queue_depth > 10 then "   <-- congested hop" else ""))
        records;
      let worst =
        List.fold_left
          (fun (n, q) r ->
            if r.Telemetry.queue_depth > q then (r.Telemetry.node_id, r.Telemetry.queue_depth)
            else (n, q))
          (0, -1) records
      in
      Printf.printf "\nbottleneck identified at router %d (queue depth %d)\n"
        (fst worst) (snd worst);
      assert (fst worst = 3)

module Sim = Dip_netsim.Sim

let run_parallel ?window sim ~pools =
  let tbl = Hashtbl.create (List.length pools * 2) in
  List.iter (fun (node, pool) -> Hashtbl.replace tbl node pool) pools;
  Sim.run_batched ?window sim ~batchable:(Hashtbl.mem tbl)
    ~exec:(fun batch ->
      (* Group the window per node, preserving arrival order within
         each group, and run each group through its node's pool. *)
      let groups = Hashtbl.create 4 in
      Array.iteri
        (fun i it ->
          let node = it.Sim.b_node in
          let prev = Option.value (Hashtbl.find_opt groups node) ~default:[] in
          Hashtbl.replace groups node (i :: prev))
        batch;
      let out = Array.make (Array.length batch) [] in
      Hashtbl.iter
        (fun node rev_idxs ->
          let idxs = Array.of_list (List.rev rev_idxs) in
          let items =
            Array.map
              (fun i ->
                let it = batch.(i) in
                { Pool.now = it.Sim.b_time; ingress = it.Sim.b_port;
                  pkt = it.Sim.b_packet })
              idxs
          in
          let actions = Pool.handle_batch (Hashtbl.find tbl node) items in
          Array.iteri (fun k i -> out.(i) <- actions.(k)) idxs)
        groups;
      out)

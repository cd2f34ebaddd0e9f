(* Topology's adjacency against the edge-scan oracle.

   [Topology.make] builds each node's sorted adjacency once, and every
   query reads it. The oracle below is the implementation it replaced:
   [neighbors] rescans the edge list, [port_of] walks that list, and
   the BFS calls [neighbors] at every visited node. Every generator's
   topologies (linear, star, dumbbell, seeded random, wan and fat-tree
   for k = 2..16) and random edge lists with repeats and self-loops
   must give the same neighbours, ports, predecessor arrays, next hops
   and paths, and [instantiate] must wire each node's port p to its
   p-th oracle neighbour, on the oracle's port back. *)

module Topology = Dip_netsim.Topology
module Sim = Dip_netsim.Sim

module Oracle = struct
  let neighbors (t : Topology.t) u =
    List.filter_map
      (fun (e : Topology.edge) ->
        if e.u = u then Some e.v else if e.v = u then Some e.u else None)
      t.Topology.edges
    |> List.sort_uniq compare

  let port_of t u v =
    let rec idx i = function
      | [] -> raise Not_found
      | x :: _ when x = v -> i
      | _ :: rest -> idx (i + 1) rest
    in
    idx 0 (neighbors t u)

  let shortest_paths (t : Topology.t) ~src =
    let pred = Array.make t.Topology.node_count (-1) in
    let seen = Array.make t.Topology.node_count false in
    seen.(src) <- true;
    let q = Queue.create () in
    Queue.add src q;
    while not (Queue.is_empty q) do
      let u = Queue.take q in
      List.iter
        (fun v ->
          if not seen.(v) then begin
            seen.(v) <- true;
            pred.(v) <- u;
            Queue.add v q
          end)
        (neighbors t u)
    done;
    pred

  (* [path] and [next_hop] from [src]'s predecessor array, computed
     once per source. *)
  let path pred ~src ~dst =
    if src = dst then Some [ src ]
    else if pred.(dst) = -1 then None
    else
      let rec back v acc = if v = src then v :: acc else back pred.(v) (v :: acc) in
      Some (back dst [])

  let next_hop pred ~src ~dst =
    match path pred ~src ~dst with Some (_ :: h :: _) -> Some h | _ -> None
end

let nop _ ~now:_ ~ingress:_ _ = []

(* The BFS-derived queries from a few sources spread over the node
   range: the oracle's BFS is quadratic, and k=16 has 1344 nodes. *)
let sources n = List.sort_uniq compare [ 0; n / 3; n / 2; (2 * n / 3); n - 1 ]

let check_against_oracle label (t : Topology.t) =
  let n = t.Topology.node_count in
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) label in
  for u = 0 to n - 1 do
    let ns = Oracle.neighbors t u in
    if Topology.neighbors t u <> ns then fail "neighbors of %d" u;
    List.iter
      (fun v ->
        if Topology.port_of t u v <> Oracle.port_of t u v then fail "port_of %d %d" u v)
      ns
  done;
  List.iter
    (fun src ->
      let pred = Oracle.shortest_paths t ~src in
      if Topology.shortest_paths t ~src <> pred then fail "shortest_paths from %d" src;
      List.iter
        (fun dst ->
          if Topology.path t ~src ~dst <> Oracle.path pred ~src ~dst then
            fail "path %d -> %d" src dst;
          if Topology.next_hop t ~src ~dst <> Oracle.next_hop pred ~src ~dst then
            fail "next_hop %d -> %d" src dst)
        (List.init n Fun.id))
    (sources n);
  (* Instantiate onto a fresh simulator: port p of u leads to its p-th
     oracle neighbour v, arriving on v's oracle port to u. *)
  let sim = Sim.create () in
  let ids = Topology.instantiate t sim ~name:(Printf.sprintf "n%d") ~handler:(fun _ -> nop) in
  for u = 0 to n - 1 do
    List.iteri
      (fun p v ->
        if Sim.neighbor sim ids.(u) p <> Some (ids.(v), Oracle.port_of t v u) then
          fail "instantiate: port %d of %d" p u)
      (Oracle.neighbors t u);
    if Sim.neighbor sim ids.(u) (List.length (Oracle.neighbors t u)) <> None then
      fail "instantiate: %d has a port past its degree" u
  done

let test_generators () =
  let cases =
    [
      ("linear 1", Topology.linear 1);
      ("linear 7", Topology.linear 7);
      ("star 9", Topology.star 9);
      ("dumbbell 3 4", Topology.dumbbell 3 4);
      ("wan 12/6", Topology.wan ~seed:4L ~sites:12 ~chords:6);
      ("wan 40/25", Topology.wan ~seed:9L ~sites:40 ~chords:25);
    ]
    @ List.map
        (fun seed ->
          ( Printf.sprintf "random seed %Ld" seed,
            Topology.random ~seed ~nodes:60 ~degree:4 ))
        [ 1L; 2L; 3L; 42L ]
  in
  List.iter (fun (label, t) -> check_against_oracle label t) cases

let test_fat_trees () =
  List.iter
    (fun k -> check_against_oracle (Printf.sprintf "fat_tree %d" k) (Topology.fat_tree k))
    [ 2; 4; 6; 8; 10; 12; 14; 16 ]

(* Edge lists the generators never make: repeats in both orientations,
   self-loops and isolated nodes. [instantiate] is left out: a repeated
   edge wires its ports twice, which the simulator rejects. *)
let prop_edge_lists =
  let gen =
    QCheck.Gen.(
      int_range 1 12 >>= fun n ->
      list_size (int_range 0 30) (pair (int_bound (n - 1)) (int_bound (n - 1)))
      >|= fun pairs -> (n, pairs))
  in
  QCheck.Test.make ~name:"random edge lists = oracle" ~count:300
    (QCheck.make ~print:QCheck.Print.(pair int (list (pair int int))) gen)
    (fun (n, pairs) ->
      let edges =
        List.map
          (fun (u, v) -> { Topology.u; v; latency = 1e-6; bandwidth = Float.infinity })
          pairs
      in
      let t = Topology.make ~node_count:n edges in
      List.for_all
        (fun u ->
          let ns = Oracle.neighbors t u in
          Topology.neighbors t u = ns
          && List.for_all (fun v -> Topology.port_of t u v = Oracle.port_of t u v) ns
          && Topology.shortest_paths t ~src:u = Oracle.shortest_paths t ~src:u)
        (List.init n Fun.id))

let test_out_of_range () =
  let t = Topology.linear 3 in
  Alcotest.(check (list int)) "no neighbours past the range" [] (Topology.neighbors t 5);
  Alcotest.check_raises "port_of a non-edge" Not_found (fun () ->
      ignore (Topology.port_of t 0 2));
  Alcotest.check_raises "port_of from past the range" Not_found (fun () ->
      ignore (Topology.port_of t 7 0));
  Alcotest.check_raises "endpoint past the range"
    (Invalid_argument "Topology.make: endpoint out of range") (fun () ->
      ignore
        (Topology.make ~node_count:2
           [ { Topology.u = 0; v = 2; latency = 1e-6; bandwidth = 1.0 } ]))

let () =
  Alcotest.run "topology"
    [
      ( "adjacency = edge-scan oracle",
        [
          Alcotest.test_case "generators" `Quick test_generators;
          Alcotest.test_case "fat-tree k=2..16" `Quick test_fat_trees;
          QCheck_alcotest.to_alcotest prop_edge_lists;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
        ] );
    ]

type edge = { u : int; v : int; latency : float; bandwidth : float }
type t = { node_count : int; edges : edge list; adj : int array array }

(* Each node's row is built once, sorted and deduplicated; every
   query below reads it. *)
let make ~node_count edges =
  let rows = Array.make node_count [] in
  let add x y =
    if x < 0 || x >= node_count then
      invalid_arg "Topology.make: endpoint out of range";
    rows.(x) <- y :: rows.(x)
  in
  List.iter (fun e -> add e.u e.v; add e.v e.u) edges;
  let sorted l = Array.of_list (List.sort_uniq Int.compare l) in
  { node_count; edges; adj = Array.map sorted rows }

let mk_edge ?(latency = 1e-6) ?(bandwidth = Float.infinity) u v =
  { u; v; latency; bandwidth }

let linear ?latency ?bandwidth n =
  if n < 1 then invalid_arg "Topology.linear: need at least one node";
  make ~node_count:n (List.init (n - 1) (fun i -> mk_edge ?latency ?bandwidth i (i + 1)))

let star ?latency ?bandwidth k =
  if k < 1 then invalid_arg "Topology.star: need at least one leaf";
  make ~node_count:(k + 1) (List.init k (fun i -> mk_edge ?latency ?bandwidth 0 (i + 1)))

let dumbbell ?latency ?bandwidth l r =
  if l < 1 || r < 1 then invalid_arg "Topology.dumbbell: need hosts on both sides";
  let ls = l and rs = l + 1 in
  let left = List.init l (fun i -> mk_edge ?latency ?bandwidth i ls) in
  let right = List.init r (fun i -> mk_edge ?latency ?bandwidth rs (l + 2 + i)) in
  let middle = [ mk_edge ?latency ?bandwidth ls rs ] in
  make ~node_count:(l + r + 2) (left @ middle @ right)

let random ~seed ~nodes ~degree =
  if nodes < 2 then invalid_arg "Topology.random: need at least two nodes";
  if degree < 1 then invalid_arg "Topology.random: degree must be positive";
  let g = Dip_stdext.Prng.create seed in
  let have = Hashtbl.create 64 in
  let edges = ref [] in
  let add u v =
    let key = (min u v, max u v) in
    if u <> v && not (Hashtbl.mem have key) then begin
      Hashtbl.replace have key ();
      edges := mk_edge (fst key) (snd key) :: !edges
    end
  in
  (* Spanning backbone: attach each node to a random earlier one. *)
  for v = 1 to nodes - 1 do
    add (Dip_stdext.Prng.int g v) v
  done;
  let target = nodes * degree / 2 in
  let attempts = ref 0 in
  while List.length !edges < target && !attempts < 50 * target do
    incr attempts;
    add (Dip_stdext.Prng.int g nodes) (Dip_stdext.Prng.int g nodes)
  done;
  make ~node_count:nodes (List.rev !edges)

let fat_tree ?latency ?bandwidth k =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg "Topology.fat_tree: k must be even and >= 2";
  let half = k / 2 in
  let cores = half * half in
  (* Each pod: k/2 aggregation + k/2 edge switches, k/2 hosts per
     edge switch. *)
  let pod_size = k + (half * half) in
  let pod_base p = cores + (p * pod_size) in
  let agg p j = pod_base p + j in
  let edge p j = pod_base p + half + j in
  let host p j i = pod_base p + k + (j * half) + i in
  let edges = ref [] in
  let add u v = edges := mk_edge ?latency ?bandwidth u v :: !edges in
  for p = 0 to k - 1 do
    for j = 0 to half - 1 do
      (* Aggregation switch [j] uplinks to core group [j]. *)
      for i = 0 to half - 1 do
        add ((j * half) + i) (agg p j)
      done;
      (* Full bipartite agg-edge mesh inside the pod. *)
      for j' = 0 to half - 1 do
        add (agg p j) (edge p j')
      done;
      (* Hosts under edge switch [j]. *)
      for i = 0 to half - 1 do
        add (edge p j) (host p j i)
      done
    done
  done;
  make ~node_count:(cores + (k * pod_size)) (List.rev !edges)

let wan ~seed ~sites ~chords =
  if sites < 3 then invalid_arg "Topology.wan: need at least three sites";
  if chords < 0 then invalid_arg "Topology.wan: negative chord count";
  let g = Dip_stdext.Prng.create seed in
  let have = Hashtbl.create 64 in
  let edges = ref [] in
  let add ~lo ~hi u v =
    let key = (min u v, max u v) in
    if u <> v && not (Hashtbl.mem have key) then begin
      Hashtbl.replace have key ();
      let latency = lo +. Dip_stdext.Prng.float g (hi -. lo) in
      edges := mk_edge ~latency ~bandwidth:10e9 (fst key) (snd key) :: !edges;
      true
    end
    else false
  in
  (* Backbone ring: short regional links. *)
  for i = 0 to sites - 1 do
    ignore (add ~lo:0.005 ~hi:0.030 i ((i + 1) mod sites))
  done;
  (* Long-haul chords: seeded site pairs, intercontinental
     latencies. *)
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < chords && !attempts < 50 * (chords + 1) do
    incr attempts;
    if
      add ~lo:0.020 ~hi:0.080
        (Dip_stdext.Prng.int g sites)
        (Dip_stdext.Prng.int g sites)
    then incr added
  done;
  make ~node_count:sites (List.rev !edges)

let neighbors t u =
  if u < 0 || u >= t.node_count then [] else Array.to_list t.adj.(u)

(* [v]'s index in [u]'s sorted row, by binary search. *)
let port_of t u v =
  let row = if u < 0 || u >= t.node_count then [||] else t.adj.(u) in
  let rec go lo hi =
    if lo >= hi then raise Not_found
    else
      let mid = (lo + hi) / 2 in
      if row.(mid) = v then mid
      else if row.(mid) < v then go (mid + 1) hi
      else go lo mid
  in
  go 0 (Array.length row)

let shortest_paths t ~src =
  if src < 0 || src >= t.node_count then invalid_arg "Topology.shortest_paths";
  let pred = Array.make t.node_count (-1) in
  let seen = Array.make t.node_count false in
  seen.(src) <- true;
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    Array.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          pred.(v) <- u;
          Queue.add v q
        end)
      t.adj.(u)
  done;
  pred

let path t ~src ~dst =
  if src < 0 || src >= t.node_count || dst < 0 || dst >= t.node_count then None
  else if src = dst then Some [ src ]
  else
    let pred = shortest_paths t ~src in
    if pred.(dst) = -1 then None
    else
      let rec back v acc = if v = src then v :: acc else back pred.(v) (v :: acc) in
      Some (back dst [])

let next_hop t ~src ~dst =
  match path t ~src ~dst with Some (_ :: hop :: _) -> Some hop | _ -> None

let instantiate t sim ~name ~handler =
  let ids = Array.init t.node_count (fun i -> Sim.add_node sim ~name:(name i) (handler i)) in
  List.iter
    (fun e ->
      Sim.connect sim ~latency:e.latency ~bandwidth:e.bandwidth
        (ids.(e.u), port_of t e.u e.v)
        (ids.(e.v), port_of t e.v e.u))
    t.edges;
  ids

type t = {
  nodes : Xid.t array; (* real nodes; DAG index i is nodes.(i-1) *)
  edges : int list array; (* edges.(i): successors of DAG index i *)
}

let validate t =
  let n = Array.length t.nodes in
  if n = 0 then invalid_arg "Xia.Dag: empty address";
  if Array.length t.edges <> n + 1 then
    invalid_arg "Xia.Dag: need successor lists for source and every node";
  Array.iteri
    (fun i succs ->
      List.iter
        (fun j ->
          if j <= i then invalid_arg "Xia.Dag: edges must go forward";
          if j > n then invalid_arg "Xia.Dag: edge to unknown node")
        succs)
    t.edges;
  (* The intent (last node) must be reachable from the source. *)
  let seen = Array.make (n + 1) false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter visit t.edges.(i)
    end
  in
  visit 0;
  if not seen.(n) then invalid_arg "Xia.Dag: intent unreachable";
  t

let make ~nodes ~edges = validate { nodes; edges }

let direct xid = make ~nodes:[| xid |] ~edges:[| [ 1 ]; [] |]

let fallback ~intent ~via =
  let k = List.length via in
  let nodes = Array.of_list (via @ [ intent ]) in
  let intent_ix = k + 1 in
  (* Source tries the intent first, then the via chain; each via node
     tries the intent first, then the next via node. *)
  let edges =
    Array.init (k + 2) (fun i ->
        if i = intent_ix then []
        else if i = k then [ intent_ix ]
        else [ intent_ix; i + 1 ])
  in
  make ~nodes ~edges

let node_count t = Array.length t.nodes

let node t i =
  if i < 1 || i > node_count t then invalid_arg "Xia.Dag.node: bad index";
  t.nodes.(i - 1)

let successors t i =
  if i < 0 || i > node_count t then invalid_arg "Xia.Dag.successors: bad index";
  t.edges.(i)

let intent_index t = node_count t
let intent t = t.nodes.(node_count t - 1)

let to_wire t =
  let b = Buffer.create 128 in
  let n = node_count t in
  Buffer.add_uint8 b n;
  Array.iter (fun x -> Buffer.add_string b (Xid.to_wire x)) t.nodes;
  Array.iter
    (fun succs ->
      Buffer.add_uint8 b (List.length succs);
      List.iter (fun j -> Buffer.add_uint8 b j) succs)
    t.edges;
  Buffer.contents b

let pp fmt t =
  Format.fprintf fmt "@[<h>DAG(%d nodes; intent %a)@]" (node_count t) Xid.pp
    (intent t)

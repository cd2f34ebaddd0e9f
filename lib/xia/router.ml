module Bitbuf = Dip_bitbuf.Bitbuf

module Xid_tbl = Hashtbl.Make (struct
  type t = Xid.t

  let equal = Xid.equal
  let hash = Xid.hash
end)

type t = {
  routes : Dip_netsim.Sim.port Xid_tbl.t;
  local : unit Xid_tbl.t;
}

let create () = { routes = Xid_tbl.create 64; local = Xid_tbl.create 8 }

let add_route t xid port = Xid_tbl.replace t.routes xid port
let add_local t xid = Xid_tbl.replace t.local xid ()
let is_local t xid = Xid_tbl.mem t.local xid
let route t xid = Xid_tbl.find_opt t.routes xid

type verdict =
  | Forward of Dip_netsim.Sim.port * int
  | Deliver of int
  | Discard of string

let step t dag ~ptr =
  if ptr < 0 || ptr > Dag.node_count dag then Discard "bad-pointer"
  else begin
    (* Phase 1: advance through locally owned successors. *)
    let rec advance ptr =
      if ptr = Dag.intent_index dag then Deliver ptr
      else
        let local_succ =
          List.find_opt (fun j -> is_local t (Dag.node dag j)) (Dag.successors dag ptr)
        in
        match local_succ with
        | Some j -> advance j
        | None -> fallback ptr
    (* Phase 2: first routable successor, in priority order. *)
    and fallback ptr =
      let routable =
        List.find_map
          (fun j ->
            match route t (Dag.node dag j) with
            | Some port -> Some (port, ptr)
            | None -> None)
          (Dag.successors dag ptr)
      in
      match routable with
      | Some (port, ptr) -> Forward (port, ptr)
      | None -> Discard "dead-end"
    in
    advance ptr
  end

let encode_packet dag ~ptr ~payload =
  let wire = Dag.to_wire dag in
  if ptr < 0 || ptr > Dag.node_count dag then
    invalid_arg "Xia.Router.encode_packet: bad pointer";
  Bitbuf.of_string (String.make 1 (Char.chr ptr) ^ wire ^ payload)

let decode_slice b ~pos ~len =
  if len < 1 then Error "empty packet"
  else
    match Dag.decode b ~pos:(pos + 1) ~limit:(pos + len) with
    | exception Invalid_argument _ -> Error "malformed DAG"
    | dag, stop ->
        let ptr = Bytes.get_uint8 b pos in
        if ptr > Dag.node_count dag then Error "bad pointer" else Ok (dag, ptr, stop)

let decode_packet buf =
  let b = Bitbuf.to_bytes buf in
  match decode_slice b ~pos:0 ~len:(Bytes.length b) with
  | Error e -> Error e
  | Ok (dag, ptr, stop) -> Ok (dag, ptr, Bytes.sub_string b stop (Bytes.length b - stop))

let set_ptr buf ptr = Bitbuf.set_uint8 buf 0 ptr

let process t buf =
  match decode_packet buf with
  | Error e -> Discard e
  | Ok (dag, ptr, _) -> (
      match step t dag ~ptr with
      | Forward (port, ptr') ->
          set_ptr buf ptr';
          Forward (port, ptr')
      | (Deliver _ | Discard _) as v -> v)

let handler t _sim ~now:_ ~ingress:_ packet =
  match process t packet with
  | Forward (port, _) -> [ Dip_netsim.Sim.Forward (port, packet) ]
  | Deliver _ -> [ Dip_netsim.Sim.Consume ]
  | Discard reason -> [ Dip_netsim.Sim.Drop reason ]

(* Topology-wide symbolic reachability.

   The abstract packet is propagated node by node: at each node the
   program is executed abstractly (Absint.exec) against that node's
   registry, the first match FN's abstract value decides the
   successor set (a known value follows the node's route table, an
   abstract value fans out to every route target), and the
   post-execution store is joined into each successor's state until a
   fixpoint. Defects that no per-program check can see fall out:

   - a forwarding cycle in the traversed edges is a Loop: the match
     value never changes along it, so only hop-limit expiry drops the
     packet;
   - a node with no route for a known match value is a Blackhole;
   - a node missing a mandatory key that is only reached after an
     upstream FN rewrote the match field is the §2.4 deployment gap a
     shortest-path walk (check_deployment) cannot find. *)

module Bitbuf = Dip_bitbuf.Bitbuf
module Field = Dip_bitbuf.Field
module Topology = Dip_netsim.Topology
open Dip_core

type node = {
  n_registry : Registry.t option;  (* None = every key installed *)
  n_routes : (string * int) list;  (* exact match-field bytes -> next node *)
  n_local : string list;  (* match values this node delivers locally *)
}

type config = {
  c_topology : Topology.t;
  c_node : int -> node;
  c_src : int;
  c_dst : int;
}

let hex s =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.init (String.length s) (String.get s))))

(* The region-relative target field of the first FN whose key matches
   a node table ([t_match]) — the slice Dip_mcore.Flow hashes and the match
   value routing keys on. *)
let match_field fns =
  List.find_opt
    (fun (fn : Fn.t) -> (Registry.transfer fn.Fn.key).Registry.t_match)
    fns
  |> Option.map (fun (fn : Fn.t) -> fn.Fn.field)

let check config ~region_bits ?bytes (fns : Fn.t list) =
  let program = List.mapi (fun i fn -> (i, fn)) fns in
  let n = config.c_topology.Topology.node_count in
  if config.c_src < 0 || config.c_src >= n || config.c_dst < 0
     || config.c_dst >= n
  then
    [
      Report.error Report.Deployment
        (Printf.sprintf "src %d / dst %d outside the %d-node topology"
           config.c_src config.c_dst n);
    ]
  else begin
    let ff = match_field fns in
    let states : Absint.store option array = Array.make n None in
    let edges : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
    let seen : (Report.check * string, unit) Hashtbl.t = Hashtbl.create 8 in
    let diags = ref [] in
    let add d =
      let k = (d.Report.check, d.Report.message) in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.replace seen k ();
        diags := d :: !diags
      end
    in
    let delivered = ref false in
    let rewritten_note st =
      match ff with
      | None -> ""
      | Some f -> (
          match Absint.read st f with
          | Absint.Abs (_, (_ :: _ as ws)) ->
              Printf.sprintf
                " — reachable only after FN %s rewrote the match field"
                (String.concat "/"
                   (List.map (fun i -> string_of_int (i + 1)) ws))
          | _ -> "")
    in
    let queue = Queue.create () in
    states.(config.c_src) <- Some (Absint.init ~bits:region_bits ?bytes ());
    Queue.add config.c_src queue;
    let budget = ref ((n + 1) * (List.length fns + 4) * 64) in
    while not (Queue.is_empty queue) && !budget > 0 do
      decr budget;
      let u = Queue.pop queue in
      match states.(u) with
      | None -> ()
      | Some st ->
          let node = config.c_node u in
          let side = if u = config.c_dst then Absint.Host else Absint.Router in
          let installed key =
            match node.n_registry with
            | None -> true
            | Some r -> Registry.supports r key
          in
          let missing =
            List.filter
              (fun (_, (fn : Fn.t)) ->
                Absint.side_of_tag fn.Fn.tag = side
                && Engine.mandatory fn.Fn.key
                && not (installed fn.Fn.key))
              program
          in
          if missing <> [] then
            List.iter
              (fun (i, (fn : Fn.t)) ->
                add
                  (Report.error ~fn_index:i Report.Deployment
                     (Printf.sprintf
                        "mandatory %s is not installed on node %d: the node \
                         answers FN-unsupported%s"
                        (Opkey.name fn.Fn.key) u (rewritten_note st))))
              missing
          else begin
            let r =
              Absint.exec ?registry:node.n_registry ~store:st ~side
                ~region_bits program
            in
            if u = config.c_dst then delivered := true
            else begin
              let decide =
                List.find_opt
                  (fun (s : Absint.step) ->
                    s.Absint.st_ran
                    && (Registry.transfer s.Absint.st_fn.Fn.key)
                         .Registry.t_match)
                  r.Absint.steps
              in
              let succs =
                match decide with
                | None ->
                    add
                      (Report.error Report.Blackhole
                         (Printf.sprintf
                            "no forwarding FN executes on node %d: the packet \
                             is dropped there"
                            u));
                    []
                | Some s -> (
                    match s.Absint.st_value with
                    | Some (Absint.Bytes b) ->
                        if List.mem b node.n_local then begin
                          delivered := true;
                          []
                        end
                        else (
                          match List.assoc_opt b node.n_routes with
                          | Some v -> [ v ]
                          | None ->
                              add
                                (Report.error ~fn_index:s.Absint.st_index
                                   Report.Blackhole
                                   (Printf.sprintf
                                      "node %d has no route for match value \
                                       0x%s: the packet black-holes"
                                      u (hex b)));
                              [])
                    | _ ->
                        let targets =
                          List.sort_uniq compare (List.map snd node.n_routes)
                        in
                        if targets = [] then begin
                          add
                            (Report.error ~fn_index:s.Absint.st_index
                               Report.Blackhole
                               (Printf.sprintf
                                  "node %d has no routes at all for the \
                                   (rewritten) match value"
                                  u));
                          []
                        end
                        else targets)
              in
              List.iter
                (fun v ->
                  if v < 0 || v >= n then
                    add
                      (Report.error Report.Blackhole
                         (Printf.sprintf
                            "node %d routes to nonexistent node %d" u v))
                  else begin
                    Hashtbl.replace edges (u, v) ();
                    let joined =
                      match states.(v) with
                      | None -> r.Absint.store
                      | Some old -> Absint.join old r.Absint.store
                    in
                    let changed =
                      match states.(v) with
                      | None -> true
                      | Some old -> not (Absint.equal old joined)
                    in
                    if changed then begin
                      states.(v) <- Some joined;
                      Queue.add v queue
                    end
                  end)
                succs
            end
          end
    done;
    (* Loop detection: any directed cycle among the traversed edges,
       reachable from src (all recorded edges are). *)
    let succs_of u =
      Hashtbl.fold (fun (a, b) () acc -> if a = u then b :: acc else acc)
        edges []
    in
    let color = Array.make n 0 (* 0 white, 1 on stack, 2 done *) in
    let cycle = ref None in
    let rec dfs path u =
      if color.(u) = 1 then begin
        if !cycle = None then begin
          (* [path] is ancestors, most recent first: the cycle runs
             from u's occurrence on the stack back to u. *)
          let rec cut = function
            | [] -> []
            | x :: rest -> if x = u then x :: rest else cut rest
          in
          cycle := Some (cut (List.rev path) @ [ u ])
        end
      end
      else if color.(u) = 0 then begin
        color.(u) <- 1;
        List.iter (fun v -> dfs (u :: path) v) (List.sort compare (succs_of u));
        color.(u) <- 2
      end
    in
    dfs [] config.c_src;
    (match !cycle with
    | Some nodes ->
        add
          (Report.error Report.Loop
             (Printf.sprintf
                "unbounded forwarding loop %s: no FN changes the match value \
                 along the cycle, so only basic-header hop-limit expiry \
                 drops the packet"
                (String.concat "→" (List.map string_of_int nodes))))
    | None -> ());
    if (not !delivered) && !diags = [] then
      add
        (Report.error Report.Blackhole
           (Printf.sprintf "the packet never reaches node %d" config.c_dst));
    List.rev !diags
  end

let check_view config (view : Packet.view) =
  let h = view.Packet.header in
  let region_bits = 8 * h.Header.fn_loc_len in
  let bytes =
    if region_bits = 0 then None
    else
      Some
        (Bitbuf.get_field view.Packet.buf
           (Field.v ~off_bits:(8 * view.Packet.loc_base) ~len_bits:region_bits))
  in
  check config ~region_bits ?bytes (Array.to_list view.Packet.fns)

let match_value (view : Packet.view) =
  match match_field (Array.to_list view.Packet.fns) with
  | None -> None
  | Some f ->
      let h = view.Packet.header in
      if Field.last_bit f > 8 * h.Header.fn_loc_len then None
      else
        Some
          (Bitbuf.get_field view.Packet.buf
             (Field.v
                ~off_bits:(8 * view.Packet.loc_base + f.Field.off_bits)
                ~len_bits:f.Field.len_bits))

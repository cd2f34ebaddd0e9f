module Report = Report
module Absint = Absint
module Reach = Reach
module Bitbuf = Dip_bitbuf.Bitbuf
module Field = Dip_bitbuf.Field
open Dip_core

let access (fn : Fn.t) = Registry.access fn.Fn.key

(* Two FNs conflict — must be serialized by a parallel dataplane —
   when their target slices overlap with at least one writer, or when
   the earlier one produces the scratch value the later one consumes.
   [conflict a b] assumes [a] precedes [b] in program order. *)
let conflict a b =
  let aa = access a and ab = access b in
  (Field.overlaps a.Fn.field b.Fn.field
  && (Registry.writes_target aa || Registry.writes_target ab))
  || (aa.Registry.writes_scratch && ab.Registry.reads_scratch)

let levels ~conflict fns =
  let n = Array.length fns in
  let level = Array.make n 1 in
  for j = 0 to n - 1 do
    for i = 0 to j - 1 do
      if conflict fns.(i) fns.(j) then
        level.(j) <- max level.(j) (level.(i) + 1)
    done
  done;
  level

let depth_of_array fns =
  if Array.length fns = 0 then 0
  else Array.fold_left max 1 (levels ~conflict fns)

let depth fns = depth_of_array (Array.of_list fns)

let flow_field = Reach.match_field

(* --- the check classes; each works on (original_index, fn) pairs so
   that packet-level analysis can skip undecodable FNs without losing
   the indices of the rest --- *)

let wire_limit = 0xFFFF

let bounds_diags ~loc_len_bits indexed =
  List.concat_map
    (fun (i, (fn : Fn.t)) ->
      let f = fn.Fn.field in
      let wire =
        if f.Field.off_bits > wire_limit || f.Field.len_bits > wire_limit then
          [
            Report.error ~fn_index:i ~field:f Report.Bounds
              (Format.asprintf
                 "target %a does not fit the 16-bit loc/len wire fields"
                 Field.pp f);
          ]
        else []
      in
      let region =
        if Field.last_bit f > loc_len_bits then
          [
            Report.error ~fn_index:i ~field:f Report.Bounds
              (Format.asprintf
                 "target %a exceeds the %d-bit FN-locations region" Field.pp f
                 loc_len_bits);
          ]
        else []
      in
      wire @ region)
    indexed

(* The slices an FN actually touches, resolved from its declared
   transfer function (an FN that reads the whole region touches
   everything). *)
let touched ~region_bits (fn : Fn.t) =
  let reads, writes, tr = Absint.resolved ~region_bits fn in
  let reads =
    if tr.Registry.t_reads_region && region_bits > 0 then
      Field.v ~off_bits:0 ~len_bits:region_bits :: reads
    else reads
  in
  (reads, List.map fst writes)

(* Race detection only matters under the §2.2 parallel flag:
   Algorithm 1's sequential order is otherwise authoritative. Unlike
   the v1 pairwise check this works on the resolved transfer slices,
   so an FN that only writes one byte of its target (F_dag) races on
   exactly that byte. *)
let race_diags ~region_bits indexed =
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
  in
  let first_overlap l1 l2 =
    List.fold_left
      (fun acc a ->
        match acc with
        | Some _ -> acc
        | None ->
            List.fold_left
              (fun acc b ->
                match acc with
                | Some _ -> acc
                | None ->
                    if Field.overlaps a b then
                      let lo = max a.Field.off_bits b.Field.off_bits in
                      let hi = min (Field.last_bit a) (Field.last_bit b) in
                      Some (lo, hi)
                    else None)
              None l2)
      None l1
  in
  List.filter_map
    (fun ((i, (a : Fn.t)), (j, (b : Fn.t))) ->
      let ra, wa = touched ~region_bits a and rb, wb = touched ~region_bits b in
      let ww = first_overlap wa wb in
      let rw =
        match first_overlap wa rb with
        | Some _ as s -> s
        | None -> first_overlap ra wb
      in
      match (ww, rw) with
      | None, None -> None
      | _ ->
          let kind, (lo, hi) =
            match ww with
            | Some s -> ("write-write", s)
            | None -> ("read-write", Option.get rw)
          in
          Some
            (Report.error ~fn_index:j
               ~field:(Field.v ~off_bits:lo ~len_bits:(hi - lo))
               Report.Race
               (Printf.sprintf
                  "%s race between %s (FN %d) and %s (FN %d) on bits %d..%d \
                   under the parallel flag"
                  kind (Opkey.name a.Fn.key) (i + 1) (Opkey.name b.Fn.key)
                  (j + 1) lo hi)))
    (pairs indexed)

(* True dependence edges — scratch chains and slice dataflow at any
   depth, from the abstract execution — that the engine's
   overlap-only leveling (Engine.critical_path) fails to order. Under
   the parallel flag such an edge is an Error: the consumer can run
   level-concurrent with (or before) its producer. Sequentially the
   program is correct, but it breaks the moment the flag is set, so
   it is still reported as a Warning. *)
let ordering_hazard_diags ?registry ~parallel ~region_bits indexed =
  let arr = Array.of_list (List.map snd indexed) in
  let overlap_only (a : Fn.t) (b : Fn.t) =
    Field.overlaps a.Fn.field b.Fn.field
  in
  let engine_level = levels ~conflict:overlap_only arr in
  let pos = Hashtbl.create 8 in
  List.iteri (fun p (i, _) -> Hashtbl.replace pos i p) indexed;
  let edges = ref [] in
  let add_edge e = if not (List.mem e !edges) then edges := e :: !edges in
  let run side =
    let r = Absint.exec ?registry ~side ~region_bits indexed in
    List.iter
      (fun (s : Absint.step) ->
        if s.Absint.st_ran then begin
          List.iter
            (fun (c, p) -> add_edge (p, s.Absint.st_index, Some c))
            s.Absint.st_scratch_deps;
          List.iter
            (fun i ->
              if i <> s.Absint.st_index then
                add_edge (i, s.Absint.st_index, None))
            s.Absint.st_read_writers
        end)
      r.Absint.steps
  in
  run Absint.Router;
  run Absint.Host;
  List.sort compare !edges
  |> List.filter_map (fun (i, j, via) ->
         match (Hashtbl.find_opt pos i, Hashtbl.find_opt pos j) with
         | Some pi, Some pj when engine_level.(pi) >= engine_level.(pj) ->
             let a = arr.(pi) and b = arr.(pj) in
             let dep =
               match via with
               | Some c -> Printf.sprintf "consumes scratch.%s from" c
               | None -> "reads bits written by"
             in
             if parallel then
               Some
                 (Report.error ~fn_index:j Report.Race
                    (Printf.sprintf
                       "parallel flag unsafe: %s (FN %d) %s %s (FN %d) but \
                        no field overlap orders them"
                       (Opkey.name b.Fn.key) (j + 1) dep (Opkey.name a.Fn.key)
                       (i + 1)))
             else
               Some
                 (Report.warning ~fn_index:j Report.Race
                    (Printf.sprintf
                       "latent parallel hazard: %s (FN %d) %s %s (FN %d) \
                        with no field overlap to order them — the program \
                        breaks the moment the §2.2 parallel flag is set"
                       (Opkey.name b.Fn.key) (j + 1) dep (Opkey.name a.Fn.key)
                       (i + 1)))
         | _ -> None)

(* Scratch-mediated dataflow must respect program order per execution
   side: the engine skips host-tagged FNs on routers and vice versa
   (Algorithm 1 line 5), so a producer only counts for a consumer
   with the same tag. Scratch cells are named, not sliced, so this
   needs only the scratch bookkeeping of the abstract execution
   (Absint.scratch_step), not its store. *)
let dependency_diags indexed =
  let missing side =
    let producers = Hashtbl.create 4 in
    List.concat_map
      (fun (i, (fn : Fn.t)) ->
        if Absint.side_of_tag fn.Fn.tag <> side then []
        else
          let _, missing =
            Absint.scratch_step producers i (Registry.transfer fn.Fn.key)
          in
          List.map
            (fun c ->
              Report.error ~fn_index:i ~field:fn.Fn.field Report.Dependency
                (Printf.sprintf
                   "%s consumes scratch.%s but no preceding %s-tagged \
                    producer provides it"
                   (Opkey.name fn.Fn.key) c
                   (match fn.Fn.tag with
                   | Fn.Router -> "router"
                   | Fn.Host -> "host")))
            missing)
      indexed
  in
  missing Absint.Router @ missing Absint.Host

(* The mcore sharding invariant: Dip_mcore.Flow hashes the bytes of
   the first forwarding FN's target, so per-flow worker affinity (and
   with it per-flow state and ordering) requires that no router-side
   FN rewrites those bits with per-node or packet-derived data. A
   deterministic in-place step (W_step, e.g. F_dag advancing the DAG
   pointer) is exempt: every packet of the flow takes the same step
   sequence, so at any given node the flow still hashes alike. *)
let sharding_diags ?registry ~region_bits indexed =
  match Reach.match_field (List.map snd indexed) with
  | None -> []
  | Some ff ->
      List.concat_map
        (fun (j, (fn : Fn.t)) ->
          let installed =
            match registry with
            | None -> true
            | Some r -> Registry.supports r fn.Fn.key
          in
          if fn.Fn.tag <> Fn.Router || not installed then []
          else
            let _, writes, _ = Absint.resolved ~region_bits fn in
            List.filter_map
              (fun (f, k) ->
                match k with
                | Registry.W_step -> None
                | Registry.W_node | Registry.W_data ->
                    if Field.overlaps f ff then
                      let lo = max f.Field.off_bits ff.Field.off_bits in
                      let hi = min (Field.last_bit f) (Field.last_bit ff) in
                      Some
                        (Report.error ~fn_index:j
                           ~field:(Field.v ~off_bits:lo ~len_bits:(hi - lo))
                           Report.Sharding
                           (Printf.sprintf
                              "%s (FN %d) writes %s data over bits %d..%d of \
                               the flow-hash match field: packets of one \
                               flow would hash to different mcore workers"
                              (Opkey.name fn.Fn.key) (j + 1)
                              (match k with
                              | Registry.W_node -> "node-local"
                              | _ -> "packet-derived")
                              lo hi))
                    else None)
              writes)
        indexed

let key_diags ~errors_only ~registry indexed =
  List.filter_map
    (fun (i, (fn : Fn.t)) ->
      if Registry.supports registry fn.Fn.key then None
      else if Engine.mandatory fn.Fn.key then
        Some
          (Report.error ~fn_index:i Report.Key
             (Printf.sprintf
                "mandatory %s is not installed: the node would answer \
                 FN-unsupported"
                (Opkey.name fn.Fn.key)))
      else if errors_only then None
      else
        Some
          (Report.warning ~fn_index:i Report.Key
             (Printf.sprintf "%s is not installed: the node skips it (§2.4)"
                (Opkey.name fn.Fn.key))))
    indexed

let tag_diags indexed =
  List.filter_map
    (fun (i, (fn : Fn.t)) ->
      if fn.Fn.tag = Fn.Host && (access fn).Registry.forwarding then
        Some
          (Report.warning ~fn_index:i ~field:fn.Fn.field Report.Tag
             (Printf.sprintf
                "host-tagged %s: routers silently skip it, so it can never \
                 steer forwarding"
                (Opkey.name fn.Fn.key)))
      else None)
    indexed

(* What every pass sees. The verifier sets [errors_only]: it reports
   only the first Error, so a pass may then leave out anything that
   can only be a Warning. *)
type ctx = {
  registry : Registry.t option;
  parallel : bool;
  region_bits : int;
  indexed : (int * Fn.t) list;
  errors_only : bool;
}

(* The checks, in report order. A report concatenates them all; the
   verifier stops at the first pass with an Error, which is therefore
   the report's first Error too. *)
let passes =
  [
    (fun c -> bounds_diags ~loc_len_bits:c.region_bits c.indexed);
    (fun c ->
      if c.parallel then race_diags ~region_bits:c.region_bits c.indexed
      else []);
    (* Without the parallel flag an ordering hazard is only a Warning. *)
    (fun c ->
      if c.errors_only && not c.parallel then []
      else
        ordering_hazard_diags ?registry:c.registry ~parallel:c.parallel
          ~region_bits:c.region_bits c.indexed);
    (fun c -> dependency_diags c.indexed);
    (fun c ->
      sharding_diags ?registry:c.registry ~region_bits:c.region_bits c.indexed);
    (fun c ->
      match c.registry with
      | Some r -> key_diags ~errors_only:c.errors_only ~registry:r c.indexed
      | None -> []);
    (fun c -> if c.errors_only then [] else tag_diags c.indexed);
  ]

let ctx ?registry ?(errors_only = false) ~parallel ~loc_len indexed =
  { registry; parallel; region_bits = 8 * loc_len; indexed; errors_only }

let check_indexed ~fn_count c =
  let fns = Array.of_list (List.map snd c.indexed) in
  {
    Report.diags = List.concat_map (fun pass -> pass c) passes;
    fn_count;
    depth = depth_of_array fns;
    engine_depth = Engine.critical_path fns;
  }

let analyze ?registry ?(parallel = false) ~loc_len fns =
  let indexed = List.mapi (fun i fn -> (i, fn)) fns in
  check_indexed ~fn_count:(List.length fns)
    (ctx ?registry ~parallel ~loc_len indexed)

let view_ctx ?registry ?errors_only (view : Packet.view) =
  let h = view.Packet.header in
  ctx ?registry ?errors_only ~parallel:h.Header.parallel
    ~loc_len:h.Header.fn_loc_len
    (List.mapi (fun i fn -> (i, fn)) (Array.to_list view.Packet.fns))

let analyze_view ?registry (view : Packet.view) =
  check_indexed ~fn_count:(Array.length view.Packet.fns) (view_ctx ?registry view)

let analyze_packet ?registry buf =
  match Header.decode buf with
  | Error e ->
      {
        Report.diags = [ Report.error Report.Parse ("header: " ^ e) ];
        fn_count = 0;
        depth = 0;
        engine_depth = 0;
      }
  | Ok h ->
      (* Lenient FN decode: Header.decode guarantees the definition
         list fits the buffer, so the raw uint16 reads are safe; a
         bad triple becomes a diagnostic instead of ending the
         analysis. *)
      let parse_diags = ref [] and indexed = ref [] in
      for i = h.Header.fn_num - 1 downto 0 do
        let pos = Header.fn_offset i in
        let loc = Bitbuf.get_uint16 buf pos in
        let len = Bitbuf.get_uint16 buf (pos + 2) in
        let raw = Bitbuf.get_uint16 buf (pos + 4) in
        let tag = if raw land 0x8000 <> 0 then Fn.Host else Fn.Router in
        match Opkey.of_int (raw land 0x7FFF) with
        | None ->
            parse_diags :=
              Report.error ~fn_index:i Report.Key
                (Printf.sprintf "unknown operation key %d" (raw land 0x7FFF))
              :: !parse_diags
        | Some key ->
            if len = 0 then
              parse_diags :=
                Report.error ~fn_index:i Report.Bounds
                  "zero-length target field"
                :: !parse_diags
            else indexed := (i, Fn.v ~tag ~loc ~len key) :: !indexed
      done;
      let r =
        check_indexed ~fn_count:h.Header.fn_num
          (ctx ?registry ~parallel:h.Header.parallel
             ~loc_len:h.Header.fn_loc_len !indexed)
      in
      { r with Report.diags = !parse_diags @ r.Report.diags }

let check_deployment ~topology ~registry_at ~src ~dst fns =
  match Dip_netsim.Topology.path topology ~src ~dst with
  | None ->
      [
        Report.error Report.Deployment
          (Printf.sprintf "no path from node %d to node %d" src dst);
      ]
  | Some nodes ->
      let path_str = String.concat "→" (List.map string_of_int nodes) in
      (* One diagnostic per distinct mandatory (key, tag) used, at its
         first occurrence. *)
      let seen = Hashtbl.create 8 in
      let mandatory =
        List.concat
          (List.mapi
             (fun i (fn : Fn.t) ->
               if
                 Engine.mandatory fn.Fn.key
                 && not (Hashtbl.mem seen (fn.Fn.key, fn.Fn.tag))
               then begin
                 Hashtbl.replace seen (fn.Fn.key, fn.Fn.tag) ();
                 [ (i, fn) ]
               end
               else [])
             fns)
      in
      List.concat_map
        (fun (i, (fn : Fn.t)) ->
          let must_support =
            match fn.Fn.tag with
            | Fn.Router ->
                (* routers between the endpoints execute it *)
                List.filter (fun n -> n <> src && n <> dst) nodes
            | Fn.Host -> [ dst ]
          in
          List.filter_map
            (fun n ->
              if Registry.supports (registry_at n) fn.Fn.key then None
              else
                Some
                  (Report.error ~fn_index:i Report.Deployment
                     (Printf.sprintf
                        "mandatory %s is not installed on node %d (path %s)"
                        (Opkey.name fn.Fn.key) n path_str)))
            must_support)
        mandatory

let verifier ?registry () view =
  let c = view_ctx ?registry ~errors_only:true view in
  let rec first = function
    | [] -> Ok ()
    | pass :: rest -> (
        match
          List.find_opt (fun d -> d.Report.severity = Report.Error) (pass c)
        with
        | Some d -> Error (Format.asprintf "%a" Report.pp_diag d)
        | None -> first rest)
  in
  first passes

let registry_gate ~programs registry =
  let rec go i = function
    | [] -> Ok ()
    | p :: rest -> (
        match Report.first_error (analyze_packet ~registry p) with
        | Some e -> Error (Printf.sprintf "program %d: %s" i e)
        | None -> go (i + 1) rest)
  in
  go 0 programs

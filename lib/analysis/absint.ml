(* Abstract interpretation of FN programs.

   Algorithm 1 is a straight-line interpreter: each FN reads and
   writes declared slices of the FN-locations region plus a few named
   scratch cells. This module executes the declared transfer
   functions (Registry.transfer) over an abstract store that maps
   disjoint bit slices of the region to abstract values, tracking for
   every slice which FNs may have written it. The per-program checks
   in Dip_analysis and the topology-wide reachability pass in Reach
   are both built on this. *)

module Bitbuf = Dip_bitbuf.Bitbuf
module Field = Dip_bitbuf.Field
open Dip_core

type kind = K_step | K_node | K_data | K_top

let kind_of_written = function
  | Registry.W_step -> K_step
  | Registry.W_node -> K_node
  | Registry.W_data -> K_data

let join_kind a b = if a = b then a else K_top

let kind_name = function
  | K_step -> "step"
  | K_node -> "node-local"
  | K_data -> "data"
  | K_top -> "unknown"

type value =
  | Bytes of string  (* exact MSB-aligned bytes of the slice *)
  | Abs of kind * int list  (* abstract; sorted FN indices that may have written *)

let writers_of = function Bytes _ -> [] | Abs (_, w) -> w

let merge_writers a b = List.sort_uniq compare (a @ b)

let join_value a b =
  match (a, b) with
  | Bytes x, Bytes y when String.equal x y -> a
  | Bytes _, Bytes _ -> Abs (K_top, [])
  | Bytes _, Abs (_, w) | Abs (_, w), Bytes _ -> Abs (K_top, w)
  | Abs (k1, w1), Abs (k2, w2) -> Abs (join_kind k1 k2, merge_writers w1 w2)

type cell = { span : Field.t; v : value }

(* Invariant: cells are sorted by offset, pairwise disjoint, and
   cover [0, bits) exactly (no cells when [bits = 0]). *)
type store = { bits : int; cells : cell list }

let inter (a : Field.t) (b : Field.t) =
  let lo = max a.Field.off_bits b.Field.off_bits in
  let hi = min (Field.last_bit a) (Field.last_bit b) in
  if hi <= lo then None else Some (Field.v ~off_bits:lo ~len_bits:(hi - lo))

(* The value of [sub] (within [span]) given the value of [span]. *)
let sub_value (span : Field.t) v (sub : Field.t) =
  if Field.equal span sub then v
  else
    match v with
    | Abs _ -> v
    | Bytes s ->
        let b = Bitbuf.of_string s in
        Bytes
          (Bitbuf.get_field b
             (Field.v
                ~off_bits:(sub.Field.off_bits - span.Field.off_bits)
                ~len_bits:sub.Field.len_bits))

let init ~bits ?bytes () =
  if bits <= 0 then { bits = 0; cells = [] }
  else
    let v = match bytes with Some s -> Bytes s | None -> Abs (K_top, []) in
    { bits; cells = [ { span = Field.v ~off_bits:0 ~len_bits:bits; v } ] }

let region_field st = Field.v ~off_bits:0 ~len_bits:st.bits

let write st (f : Field.t) v =
  if st.bits <= 0 then st
  else
    match inter f (region_field st) with
    | None -> st
    | Some f ->
        let keep c =
          match inter c.span f with
          | None -> [ c ]
          | Some _ ->
              let lo = c.span.Field.off_bits and hi = Field.last_bit c.span in
              let wlo = max lo f.Field.off_bits
              and whi = min hi (Field.last_bit f) in
              let left =
                if wlo > lo then
                  let sp = Field.v ~off_bits:lo ~len_bits:(wlo - lo) in
                  [ { span = sp; v = sub_value c.span c.v sp } ]
                else []
              and right =
                if hi > whi then
                  let sp = Field.v ~off_bits:whi ~len_bits:(hi - whi) in
                  [ { span = sp; v = sub_value c.span c.v sp } ]
                else []
              in
              left @ right
        in
        let cells = { span = f; v } :: List.concat_map keep st.cells in
        let cells =
          List.sort
            (fun a b -> compare a.span.Field.off_bits b.span.Field.off_bits)
            cells
        in
        { st with cells }

let read st (f : Field.t) =
  if st.bits <= 0 then Abs (K_top, [])
  else
    match inter f (region_field st) with
    | None -> Abs (K_top, [])
    | Some f -> (
        let pieces =
          List.filter_map
            (fun c ->
              match inter c.span f with None -> None | Some i -> Some (c, i))
            st.cells
        in
        match pieces with
        | [] -> Abs (K_top, [])
        | [ (c, i) ] when Field.equal i f -> sub_value c.span c.v f
        | pieces ->
            let all_bytes =
              List.for_all
                (fun (c, _) -> match c.v with Bytes _ -> true | Abs _ -> false)
                pieces
            in
            if all_bytes then begin
              (* Reassemble exact bytes across cell boundaries. *)
              let out = Bitbuf.create ((f.Field.len_bits + 7) / 8) in
              List.iter
                (fun (c, i) ->
                  match sub_value c.span c.v i with
                  | Bytes s ->
                      Bitbuf.set_field out
                        (Field.v
                           ~off_bits:(i.Field.off_bits - f.Field.off_bits)
                           ~len_bits:i.Field.len_bits)
                        s
                  | Abs _ -> ())
                pieces;
              Bytes
                (Bitbuf.get_field out
                   (Field.v ~off_bits:0 ~len_bits:f.Field.len_bits))
            end
            else
              let kind =
                List.fold_left
                  (fun acc (c, _) ->
                    match c.v with
                    | Bytes _ -> acc
                    | Abs (k, _) -> (
                        match acc with
                        | None -> Some k
                        | Some k' -> Some (join_kind k k'))
                  )
                  None pieces
                |> Option.value ~default:K_top
              in
              let ws =
                List.sort_uniq compare
                  (List.concat_map (fun (c, _) -> writers_of c.v) pieces)
              in
              Abs (kind, ws))

let writers_in st f = writers_of (read st f)

let join a b =
  if a.bits <> b.bits then invalid_arg "Absint.join: store widths differ";
  if a.bits <= 0 then a
  else
    let cuts =
      List.sort_uniq compare
        (0 :: a.bits
        :: List.concat_map
             (fun st ->
               List.concat_map
                 (fun c ->
                   [ c.span.Field.off_bits; Field.last_bit c.span ])
                 st.cells)
             [ a; b ])
    in
    let rec spans = function
      | lo :: (hi :: _ as rest) ->
          (if hi > lo then [ Field.v ~off_bits:lo ~len_bits:(hi - lo) ]
           else [])
          @ spans rest
      | _ -> []
    in
    let cells =
      List.map
        (fun sp -> { span = sp; v = join_value (read a sp) (read b sp) })
        (spans cuts)
    in
    { bits = a.bits; cells }

let equal_value a b =
  match (a, b) with
  | Bytes x, Bytes y -> String.equal x y
  | Abs (k1, w1), Abs (k2, w2) -> k1 = k2 && w1 = w2
  | _ -> false

let equal a b =
  a.bits = b.bits
  && List.length a.cells = List.length b.cells
  && List.for_all2
       (fun x y -> Field.equal x.span y.span && equal_value x.v y.v)
       a.cells b.cells

(* ------------------------------------------------------------------ *)
(* Abstract execution of one program on one side.                      *)
(* ------------------------------------------------------------------ *)

type side = Router | Host

let side_of_tag = function Fn.Router -> Router | Fn.Host -> Host

type step = {
  st_index : int;  (* original program index *)
  st_fn : Fn.t;
  st_ran : bool;  (* executed on this side (tag and registry allow) *)
  st_reads : Field.t list;  (* resolved read slices *)
  st_reads_region : bool;
  st_writes : (Field.t * Registry.written_kind) list;
  st_read_writers : int list;  (* FNs whose output this one read *)
  st_value : value option;  (* value of the target's first read slice *)
  st_scratch_deps : (string * int) list;  (* consumed cell, producer *)
  st_missing_scratch : string list;  (* consumed cells with no producer *)
}

type exec_result = {
  steps : step list;
  store : store;
  scratch : (string * int) list;  (* cells produced, with producer index *)
}

let resolved ~region_bits (fn : Fn.t) =
  let tr = Registry.transfer fn.Fn.key in
  let resolve s = Registry.resolve_span ~field:fn.Fn.field ~region_bits s in
  let reads = List.filter_map resolve tr.Registry.t_reads in
  let writes =
    List.filter_map
      (fun (s, k) -> Option.map (fun f -> (f, k)) (resolve s))
      tr.Registry.t_writes
  in
  (reads, writes, tr)

let skipped i fn =
  {
    st_index = i;
    st_fn = fn;
    st_ran = false;
    st_reads = [];
    st_reads_region = false;
    st_writes = [];
    st_read_writers = [];
    st_value = None;
    st_scratch_deps = [];
    st_missing_scratch = [];
  }

let scratch_step producers i (tr : Registry.transfer) =
  let deps, missing =
    List.partition_map
      (fun c ->
        match Hashtbl.find_opt producers c with
        | Some p -> Either.Left (c, p)
        | None -> Either.Right c)
      tr.Registry.t_consumes
  in
  List.iter (fun c -> Hashtbl.replace producers c i) tr.Registry.t_produces;
  (deps, missing)

let exec ?registry ?store:init_store ?bytes ~side ~region_bits program =
  let store =
    ref
      (match init_store with
      | Some st -> st
      | None -> init ~bits:region_bits ?bytes ())
  in
  let scratch : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let steps =
    List.map
      (fun (i, (fn : Fn.t)) ->
        let installed =
          match registry with
          | None -> true
          | Some r -> Registry.supports r fn.Fn.key
        in
        if side_of_tag fn.Fn.tag <> side || not installed then skipped i fn
        else begin
          let reads, writes, tr = resolved ~region_bits fn in
          let read_fields =
            if tr.Registry.t_reads_region && region_bits > 0 then
              Field.v ~off_bits:0 ~len_bits:region_bits :: reads
            else reads
          in
          let read_writers =
            List.sort_uniq compare
              (List.concat_map (fun f -> writers_in !store f) read_fields)
          in
          let value =
            match reads with f :: _ -> Some (read !store f) | [] -> None
          in
          let deps, missing = scratch_step scratch i tr in
          List.iter
            (fun (f, k) ->
              store := write !store f (Abs (kind_of_written k, [ i ])))
            writes;
          {
            st_index = i;
            st_fn = fn;
            st_ran = true;
            st_reads = reads;
            st_reads_region = tr.Registry.t_reads_region;
            st_writes = writes;
            st_read_writers = read_writers;
            st_value = value;
            st_scratch_deps = deps;
            st_missing_scratch = missing;
          }
        end)
      program
  in
  {
    steps;
    store = !store;
    scratch = Hashtbl.fold (fun k v acc -> (k, v) :: acc) scratch [];
  }

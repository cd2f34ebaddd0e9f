(* A reference for XIA forwarding: the DAG decoded into a Dag.t (the
   decoder F_DAG and F_intent ran per packet before they read the
   wire in place) and stepped by list scans over its successors,
   looking each XID up in the router's tables by value.
   Dip_xia.Router walks the wire DAG where it lies instead, reading
   only the pointer node's successor lists; test_xia checks F_DAG and
   F_intent, which use that walk, against [decode_slice] and [step]
   on random and mangled slices. *)

open Dip_xia

type verdict =
  | Forward of Dip_netsim.Sim.port * int  (** port, updated pointer *)
  | Deliver of int  (** pointer reached the intent *)
  | Discard of string

(* One fallback traversal step on a parsed address (see Router). *)
let step t dag ~ptr =
  if ptr < 0 || ptr > Dag.node_count dag then Discard "bad-pointer"
  else begin
    (* Phase 1: advance through locally owned successors. *)
    let rec advance ptr =
      if ptr = Dag.intent_index dag then Deliver ptr
      else
        let local_succ =
          List.find_opt (fun j -> Router.is_local t (Dag.node dag j)) (Dag.successors dag ptr)
        in
        match local_succ with
        | Some j -> advance j
        | None -> fallback ptr
    (* Phase 2: first routable successor, in priority order. *)
    and fallback ptr =
      let routable =
        List.find_map
          (fun j ->
            match Router.route t (Dag.node dag j) with
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

(* [decode b ~pos ~limit] decodes the DAG whose encoding starts at
   [pos] in [b] and ends before [limit] into a Dag.t, and returns it
   with the position just past it. Raises [Invalid_argument] on a
   malformed or truncated encoding, or on a DAG Dag.make refuses. *)
let decode b ~pos ~limit =
  let fail () = invalid_arg "Xia_ref.decode: malformed encoding" in
  let limit = min limit (Bytes.length b) and p = ref pos in
  let u8 () =
    if !p >= limit then fail ();
    let v = Bytes.get_uint8 b !p in
    incr p;
    v
  in
  let n = u8 () in
  if n = 0 then fail ();
  let nodes =
    Array.init n (fun _ ->
        if !p + 21 > limit then fail ();
        let x = Xid.of_wire (Bytes.sub_string b !p 21) in
        p := !p + 21;
        x)
  in
  let edges =
    Array.init (n + 1) (fun _ ->
        let d = u8 () in
        List.init d (fun _ -> u8 ()))
  in
  (Dag.make ~nodes ~edges, !p)

(* [decode] over a whole string, which must hold exactly one DAG. *)
let of_wire s =
  let t, stop = decode (Bytes.of_string s) ~pos:0 ~limit:(String.length s) in
  if stop <> String.length s then invalid_arg "Xia_ref.of_wire: trailing bytes";
  t

(* [decode_slice b ~pos ~len] decodes the [len] bytes of [b] at [pos]
   as [ptr byte ∥ DAG ∥ …] — an F_DAG / F_intent target field:
   [Ok (dag, ptr, stop)] with [stop] the position just past the DAG,
   or ["empty packet"], ["malformed DAG"], ["bad pointer"]. *)
let decode_slice b ~pos ~len =
  if len < 1 then Error "empty packet"
  else
    match decode b ~pos:(pos + 1) ~limit:(pos + len) with
    | exception Invalid_argument _ -> Error "malformed DAG"
    | dag, stop ->
        let ptr = Bytes.get_uint8 b pos in
        if ptr > Dag.node_count dag then Error "bad pointer" else Ok (dag, ptr, stop)

(* What F_DAG does with the slice, by the reference: its drop reason,
   or its route (None: continue to F_intent) and the pointer it
   writes. *)
let f_dag t b ~pos ~len =
  match decode_slice b ~pos ~len with
  | Error e -> Error ("dag: " ^ e)
  | Ok (dag, ptr, _) -> (
      match step t dag ~ptr with
      | Forward (port, ptr) -> Ok (Some port, ptr)
      | Deliver ptr -> Ok (None, ptr)
      | Discard reason -> Error ("dag: " ^ reason))

(* What F_intent does with the slice: [Ok true] delivers, [Ok false]
   continues, [Error] drops. *)
let f_intent t b ~pos ~len =
  match decode_slice b ~pos ~len with
  | Error e -> Error ("intent: " ^ e)
  | Ok (dag, ptr, _) ->
      if ptr <> Dag.intent_index dag then Ok false
      else if Router.is_local t (Dag.intent dag) then Ok true
      else Error "intent-not-local"

module Slots = Dip_tables.Slots

(* XIDs are keyed by their 21 wire bytes, hashed into an int; slot [s]
   holds the bytes a hit is checked against, and the port. *)
type table = {
  index : Slots.t;
  mutable wires : string array;
  mutable ports : Dip_netsim.Sim.port array;
}

type t = {
  routes : table;
  local : table;
  mutable seen : int array;
      (* [check]'s reachability marks, one per node: node [j] is
         reachable in the current check when [seen.(j) = seen.(0)] *)
}

let table () = { index = Slots.create ~ordered:false; wires = [||]; ports = [||] }
let create () = { routes = table (); local = table (); seen = [||] }

(* The 21 bytes at [off] as three overlapping words: 0-7, 8-15, 13-20. *)
external get64 : bytes -> int -> int64 = "%caml_bytes_get64"
external sget64 : string -> int -> int64 = "%caml_string_get64"

(* XIDs are hashes themselves, so one multiply spreads their words
   into the low bits {!Slots} buckets by. *)
let hash_at b off =
  let w = Int64.(to_int (logxor (get64 b off) (logxor (get64 b (off + 8)) (get64 b (off + 13))))) in
  let h = w * 0x2545F4914F6CDD1D in
  h lxor (h lsr 32)

let same_at b off w =
  (get64 b off : int64) = sget64 w 0
  && (get64 b (off + 8) : int64) = sget64 w 8
  && (get64 b (off + 13) : int64) = sget64 w 13

let rec seek tbl b off s =
  if s < 0 || same_at b off tbl.wires.(s) then s else seek tbl b off (Slots.next tbl.index s)

(* The slot of the XID whose wire bytes are at [off], or -1. *)
let find tbl b off =
  if Slots.count tbl.index = 0 then -1 else seek tbl b off (Slots.find tbl.index (hash_at b off))

let add tbl xid port =
  let w = Xid.to_wire xid in
  let b = Bytes.unsafe_of_string w in
  let s = find tbl b 0 in
  let s = if s >= 0 then s else Slots.add tbl.index (hash_at b 0) in
  tbl.wires <- Slots.fit tbl.wires tbl.index "";
  tbl.ports <- Slots.fit tbl.ports tbl.index 0;
  tbl.wires.(s) <- w;
  tbl.ports.(s) <- port

let add_route t xid port = add t.routes xid port
let add_local t xid = add t.local xid 0
let slot tbl xid = find tbl (Bytes.unsafe_of_string (Xid.to_wire xid)) 0
let is_local t xid = slot t.local xid >= 0

let route t xid =
  let s = slot t.routes xid in
  if s < 0 then None else Some t.routes.ports.(s)

(* --- the wire DAG, read in place ------------------------------------- *)

(* A target is [ptr byte ∥ node count n ∥ n XIDs of 21 bytes ∥ n + 1
   successor lists], each list a count byte and that many DAG indices;
   index 0 is the virtual source, [i >= 1] the XID at [node ~pos i]. *)
let count b ~pos = Bytes.get_uint8 b (pos + 1)
let node ~pos i = pos + 2 + (21 * (i - 1))
let lists b ~pos = node ~pos (count b ~pos + 1)

(* The list [i] entries after the one at [q]. *)
let rec skip b q i = if i = 0 then q else skip b (q + 1 + Bytes.get_uint8 b q) (i - 1)

type check = Valid | Empty | Malformed | Bad_pointer

let rec kinds_ok b off n = n = 0 || (Bytes.get_uint8 b off <= 3 && kinds_ok b (off + 21) (n - 1))

(* The successor lists from [q] up to [limit] are complete, every edge
   goes forward to a node, and the intent is reachable from the
   source: edges go forward, so one pass in index order marks every
   node reachable. *)
let edges_ok t b q limit n =
  if Array.length t.seen = 0 then t.seen <- Array.make 256 0;
  let seen = t.seen in
  (* A new mark for this check: no clearing between checks. *)
  let mark = seen.(0) + 1 in
  seen.(0) <- mark;
  let q = ref q and i = ref 0 and ok = ref true in
  while !ok && !i <= n do
    if !q >= limit then ok := false
    else begin
      let d = Bytes.get_uint8 b !q in
      let first = !q + 1 in
      q := first + d;
      if !q > limit then ok := false
      else
        for k = first to !q - 1 do
          let j = Bytes.get_uint8 b k in
          if j <= !i || j > n then ok := false
          else if seen.(!i) = mark then seen.(j) <- mark
        done
    end;
    incr i
  done;
  !ok && seen.(n) = mark

let check t b ~pos ~len =
  if len < 1 then Empty
  else
    let limit = if pos + len < Bytes.length b then pos + len else Bytes.length b in
    if pos + 1 >= limit then Malformed
    else
      let n = count b ~pos in
      if n = 0 || lists b ~pos > limit || not (kinds_ok b (node ~pos 1) n) then Malformed
      else if not (edges_ok t b (lists b ~pos) limit n) then Malformed
      else if Bytes.get_uint8 b pos > n then Bad_pointer
      else Valid

(* Of the [d] successors listed after [q], the first this node owns:
   its DAG index, or -1. *)
let rec first_local t b ~pos q d =
  if d = 0 then -1
  else
    let j = Bytes.get_uint8 b (q + 1) in
    if find t.local b (node ~pos j) >= 0 then j else first_local t b ~pos (q + 1) (d - 1)

(* Of the same, the first with a route: its port, or -1. *)
let rec first_port t b ~pos q d =
  if d = 0 then -1
  else
    let s = find t.routes b (node ~pos (Bytes.get_uint8 b (q + 1))) in
    if s >= 0 then t.routes.ports.(s) else first_port t b ~pos (q + 1) (d - 1)

(* From [ptr], whose list is at [q], through owned successors. *)
let rec advance_from t b ~pos ptr q =
  if ptr = count b ~pos then ptr
  else
    let j = first_local t b ~pos q (Bytes.get_uint8 b q) in
    if j < 0 then ptr else advance_from t b ~pos j (skip b q (j - ptr))

let advance t b ~pos =
  let ptr = Bytes.get_uint8 b pos in
  advance_from t b ~pos ptr (skip b (lists b ~pos) ptr)

let at_intent b ~pos ptr = ptr = count b ~pos

let next_hop t b ~pos ~ptr =
  let q = skip b (lists b ~pos) ptr in
  first_port t b ~pos q (Bytes.get_uint8 b q)

let owns_intent t b ~pos = find t.local b (node ~pos (count b ~pos)) >= 0

type counter = { mutable c : int; mutable written : bool }
type gauge = { mutable g : int }

let nbuckets = 40

(* All-int fields: an observation stores without boxing a float. *)
type histogram = {
  slots : int array; (* length nbuckets *)
  mutable hcount : int;
  mutable hsum : int;
  mutable hmax : int;
}

type instrument = C of counter | G of gauge | H of histogram

type t = {
  table : (string, string * instrument) Hashtbl.t; (* name -> help, handle *)
}

let create () = { table = Hashtbl.create 64 }

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register ?(help = "") t name fresh =
  match Hashtbl.find_opt t.table name with
  | Some (_, existing) -> existing
  | None ->
      let i = fresh () in
      Hashtbl.replace t.table name (help, i);
      i

let clash what name i =
  invalid_arg
    (Printf.sprintf "Metrics.%s: %S is already a %s" what name (kind_name i))

let counter ?help t name =
  match register ?help t name (fun () -> C { c = 0; written = false }) with
  | C c -> c
  | i -> clash "counter" name i

let gauge ?help t name =
  match register ?help t name (fun () -> G { g = 0 }) with
  | G g -> g
  | i -> clash "gauge" name i

let histogram ?help t name =
  match
    register ?help t name (fun () ->
        H { slots = Array.make nbuckets 0; hcount = 0; hsum = 0; hmax = 0 })
  with
  | H h -> h
  | i -> clash "histogram" name i

module Counter = struct
  let incr ?(by = 1) c =
    c.c <- c.c + by;
    c.written <- true

  let set c v =
    c.c <- v;
    c.written <- true

  let get c = c.c
end

(* A label is looked up by a scan, not a hash: a family holds a few
   labels (drop reasons, fault kinds), mostly string literals, which
   [String.equal] matches on the pointer before reading any byte. *)
type family = {
  reg : t;
  prefix : string;
  fhelp : string;
  mutable members : (string * counter) list;
}

let family ?(help = "") reg prefix = { reg; prefix; fhelp = help; members = [] }

let member f label =
  let rec find = function
    | (l, c) :: rest -> if String.equal l label then c else find rest
    | [] ->
        let c = counter ~help:f.fhelp f.reg (f.prefix ^ label) in
        f.members <- (label, c) :: f.members;
        c
  in
  find f.members

module Gauge = struct
  let set g v = g.g <- v
  let get g = g.g
end

module Histogram = struct
  let buckets = nbuckets

  let bound i =
    if i >= nbuckets - 1 then Float.infinity else Float.of_int (1 lsl i)

  (* Bucket 0: v = 0; bucket i: 2^(i-1) <= v < 2^i, i.e. v's bit
     length; last bucket: everything beyond. *)
  let rec index v i =
    if v = 0 || i = nbuckets - 1 then i else index (v lsr 1) (i + 1)

  let observe h v =
    let v = if v < 0 then 0 else v in
    let i = index v 0 in
    h.slots.(i) <- h.slots.(i) + 1;
    h.hcount <- h.hcount + 1;
    h.hsum <- h.hsum + v;
    if v > h.hmax then h.hmax <- v

  let count h = h.hcount
  let sum h = h.hsum
  let max_value h = h.hmax
  let bucket_counts h = Array.copy h.slots

  (* Over bucket counts alone, so a snapshot estimates the same way. *)
  let estimate slots ~count ~max q =
    if count = 0 then 0.0
    else begin
      let rank =
        Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int count)))
      in
      let acc = ref 0 and idx = ref (nbuckets - 1) in
      (try
         for i = 0 to nbuckets - 1 do
           acc := !acc + slots.(i);
           if !acc >= rank then begin
             idx := i;
             raise Exit
           end
         done
       with Exit -> ());
      Float.min (bound !idx) max
    end

  let quantile h q =
    if q < 0.0 || q > 1.0 then invalid_arg "Metrics.Histogram.quantile";
    estimate h.slots ~count:h.hcount ~max:(float_of_int h.hmax) q
end

type hsnap = {
  counts : int array;
  count : int;
  sum : float;
  max_value : float;
}

type value = Counter_v of int | Gauge_v of int | Histogram_v of hsnap

let snapshot_quantile s q =
  Histogram.estimate s.counts ~count:s.count ~max:s.max_value q

let absorb t src =
  Hashtbl.iter
    (fun name (help, i) ->
      match i with
      | C s ->
          let c = counter ~help t name in
          c.c <- c.c + s.c;
          c.written <- c.written || s.written
      | G s ->
          let g = gauge ~help t name in
          g.g <- g.g + s.g
      | H s ->
          let h = histogram ~help t name in
          Array.iteri (fun i n -> h.slots.(i) <- h.slots.(i) + n) s.slots;
          h.hcount <- h.hcount + s.hcount;
          h.hsum <- h.hsum + s.hsum;
          if s.hmax > h.hmax then h.hmax <- s.hmax)
    src.table

let counter_value t name =
  match Hashtbl.find_opt t.table name with Some (_, C c) -> c.c | _ -> 0

let written_counters t =
  Hashtbl.fold
    (fun name (_, i) acc ->
      match i with C c when c.written -> (name, c.c) :: acc | _ -> acc)
    t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot t =
  Hashtbl.fold
    (fun name (help, i) acc ->
      let v =
        match i with
        | C c -> Counter_v c.c
        | G g -> Gauge_v g.g
        | H h ->
            Histogram_v
              {
                counts = Array.copy h.slots;
                count = h.hcount;
                sum = float_of_int h.hsum;
                max_value = float_of_int h.hmax;
              }
      in
      (name, help, v) :: acc)
    t.table []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

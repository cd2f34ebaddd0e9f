let paper_packet_sizes = [ 128; 768; 1500 ]

(* Satellite-pass / mobile contact schedule: the link is up only
   during periodic contact windows ("passes") and down the rest of
   the time. Returns the DOWN windows, ready to feed one by one to
   [Faults.link_down]. With [jitter] > 0 each pass start shifts by a
   seeded uniform draw in [0, jitter) — a mobile node whose contacts
   drift — while windows provably stay disjoint and ordered because
   jitter must leave [period - pass] headroom. *)
let satellite_passes ?(jitter = 0.0) ?(seed = 0L) ~period ~pass
    ~horizon () =
  if pass <= 0.0 then invalid_arg "Workload.satellite_passes: pass must be positive";
  if period <= pass then
    invalid_arg "Workload.satellite_passes: period must exceed pass";
  if horizon <= 0.0 then
    invalid_arg "Workload.satellite_passes: horizon must be positive";
  if jitter < 0.0 || jitter >= period -. pass then
    invalid_arg "Workload.satellite_passes: jitter must be in [0, period - pass)";
  let g = Dip_stdext.Prng.create seed in
  let rec go k down_from acc =
    let up_from =
      (float_of_int k *. period)
      +. (if jitter > 0.0 then Dip_stdext.Prng.float g jitter else 0.0)
    in
    if up_from >= horizon then
      if down_from < horizon then List.rev ((down_from, horizon) :: acc)
      else List.rev acc
    else
      let acc =
        if up_from > down_from then (down_from, up_from) :: acc else acc
      in
      go (k + 1) (up_from +. pass) acc
  in
  go 0 0.0 []

(* --- At-scale routing workloads ---------------------------------- *)

(* Per-mille weights approximating the public BGP table's
   prefix-length histogram (dominated by /24, with mass at /16-/23),
   plus a small /25-/32 tail so the FIB's spill path is exercised. *)
let v4_len_weights =
  [|
    (8, 6); (10, 4); (12, 10); (14, 12); (16, 70); (17, 25); (18, 40);
    (19, 55); (20, 85); (21, 65); (22, 135); (23, 95); (24, 560);
    (26, 3); (28, 3); (30, 2); (32, 6);
  |]

(* IPv6 global table shape: registry allocations at /32, customer
   sites at /48, a /64 band, and a few host routes. *)
let v6_len_weights =
  [|
    (32, 120); (36, 40); (40, 60); (44, 60); (48, 430); (52, 30);
    (56, 80); (64, 150); (126, 10); (128, 20);
  |]

let draw_len g weights =
  let total = Array.fold_left (fun a (_, w) -> a + w) 0 weights in
  let r = Dip_stdext.Prng.int g total in
  let acc = ref 0 and len = ref (fst weights.(0)) in
  (try
     Array.iter
       (fun (l, w) ->
         acc := !acc + w;
         if r < !acc then begin
           len := l;
           raise Exit
         end)
       weights
   with Exit -> ());
  !len

let mask32 len =
  if len <= 0 then 0l else Int32.shift_left (-1l) (32 - len)

let rand32 g =
  Int32.of_int (Int64.to_int (Dip_stdext.Prng.next64 g) land 0xFFFFFFFF)

let v4_prefixes ~seed ~count =
  if count < 1 then invalid_arg "Workload.v4_prefixes: count must be positive";
  let g = Dip_stdext.Prng.create seed in
  let seen = Hashtbl.create (2 * count) in
  let out = Array.make count (0l, 0) in
  let n = ref 0 in
  while !n < count do
    let len = draw_len g v4_len_weights in
    let addr = Int32.logand (rand32 g) (mask32 len) in
    if not (Hashtbl.mem seen (addr, len)) then begin
      Hashtbl.replace seen (addr, len) ();
      out.(!n) <- (addr, len);
      incr n
    end
  done;
  out

let mask64 n =
  if n <= 0 then 0L else if n >= 64 then -1L else Int64.shift_left (-1L) (64 - n)

let v6_prefixes ~seed ~count =
  if count < 1 then invalid_arg "Workload.v6_prefixes: count must be positive";
  let g = Dip_stdext.Prng.create seed in
  let seen = Hashtbl.create (2 * count) in
  let out = Array.make count ((0L, 0L), 0) in
  let n = ref 0 in
  while !n < count do
    let len = draw_len g v6_len_weights in
    (* Global-unicast-looking addresses: force the top byte to 0x20
       (2000::/3) so the table clusters like a real one. *)
    let hi =
      Int64.logor 0x2000_0000_0000_0000L
        (Int64.logand (Dip_stdext.Prng.next64 g) 0x00FF_FFFF_FFFF_FFFFL)
    in
    let hi = Int64.logand hi (mask64 len) in
    let lo = Int64.logand (Dip_stdext.Prng.next64 g) (mask64 (len - 64)) in
    if not (Hashtbl.mem seen ((hi, lo), len)) then begin
      Hashtbl.replace seen ((hi, lo), len) ();
      out.(!n) <- ((hi, lo), len);
      incr n
    end
  done;
  out

let pareto g ~alpha ~xmin =
  let u = 1.0 -. Dip_stdext.Prng.float g 1.0 in
  xmin *. (u ** (-1.0 /. alpha))

let v4_traffic ~seed ~prefixes ~flows ~packets ~skew =
  let n = Array.length prefixes in
  if n = 0 then invalid_arg "Workload.v4_traffic: empty prefix table";
  if flows < 1 then invalid_arg "Workload.v4_traffic: flows must be positive";
  if packets < 1 then invalid_arg "Workload.v4_traffic: packets must be positive";
  let g = Dip_stdext.Prng.create seed in
  (* Popularity rank -> table slot, via a seeded permutation so the
     popular prefixes are spread across the table rather than
     clustered at its front. *)
  let order = Array.init n (fun i -> i) in
  Dip_stdext.Prng.shuffle g order;
  (* Each flow picks a Zipf-popular prefix and a fixed host inside
     it; flow sizes are heavy-tailed (Pareto, alpha 1.2) so a few
     elephants dominate the bytes while mice dominate the count. *)
  let flow_dst = Array.make flows 0l in
  let flow_w = Array.make flows 0.0 in
  let total_w = ref 0.0 in
  for f = 0 to flows - 1 do
    let rank = Dip_stdext.Prng.zipf g ~n ~s:skew - 1 in
    let addr, len = prefixes.(order.(rank)) in
    let host = Int32.logand (rand32 g) (Int32.lognot (mask32 len)) in
    flow_dst.(f) <- Int32.logor addr host;
    let w = pareto g ~alpha:1.2 ~xmin:1.0 in
    flow_w.(f) <- w;
    total_w := !total_w +. w
  done;
  (* Expand to a packet stream of exactly [packets] destinations,
     proportional to flow weight, then shuffle to interleave. *)
  let stream = Array.make packets 0l in
  let pos = ref 0 in
  for f = 0 to flows - 1 do
    let share =
      max 1 (int_of_float (flow_w.(f) /. !total_w *. float_of_int packets))
    in
    let take = min share (packets - !pos) in
    for _ = 1 to take do
      stream.(!pos) <- flow_dst.(f);
      incr pos
    done
  done;
  while !pos < packets do
    stream.(!pos) <- flow_dst.(Dip_stdext.Prng.int g flows);
    incr pos
  done;
  Dip_stdext.Prng.shuffle g stream;
  stream

let catalog_name k =
  Dip_tables.Name.of_components [ "content"; Printf.sprintf "item%d" k ]

let zipf_names ~seed ~catalog ~count ~skew =
  if catalog < 1 then invalid_arg "Workload.zipf_names: empty catalog";
  let g = Dip_stdext.Prng.create seed in
  List.init count (fun _ -> catalog_name (Dip_stdext.Prng.zipf g ~n:catalog ~s:skew))

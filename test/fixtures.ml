(* Topology shapes, arrival processes, padding and a timer that only
   the tests use: a star and a dumbbell as extra generator cases for
   the adjacency oracle, seeded arrival times to drive a simulator, a
   header padded out to a wire size, a node's content store by the
   [int32] name hash, and the fastest-of-N timer that test_mcore's
   sanity check and the budgets share. *)

module Bitbuf = Dip_bitbuf.Bitbuf
module Topology = Dip_netsim.Topology
module Prng = Dip_stdext.Prng

let edge u v = { Topology.u; v; latency = 1e-6; bandwidth = Float.infinity }

(* A hub (node 0) with [k] leaves (nodes 1..k). *)
let star k = Topology.make ~node_count:(k + 1) (List.init k (fun i -> edge 0 (i + 1)))

(* [l] left hosts – left switch – right switch – [r] right hosts: left
   hosts are nodes [0..l-1], the switches [l] and [l+1], right hosts
   [l+2 ..]. *)
let dumbbell l r =
  let ls = l and rs = l + 1 in
  Topology.make ~node_count:(l + r + 2)
    (List.init l (fun i -> edge i ls)
    @ [ edge ls rs ]
    @ List.init r (fun i -> edge rs (l + 2 + i)))

type arrival = { time : float; index : int }

(* [count] arrivals with exponential inter-arrival times at [rate]
   packets/second, starting at time 0. *)
let poisson_arrivals ~seed ~rate ~count =
  let g = Prng.create seed in
  let rec go i t acc =
    if i = count then List.rev acc
    else
      let t = t +. Prng.exponential g rate in
      go (i + 1) t ({ time = t; index = i } :: acc)
  in
  go 0 0.0 []

let constant_arrivals ~interval ~count =
  List.init count (fun i -> { time = float_of_int i *. interval; index = i })

(* [pkt] extended with zero bytes to [size] bytes in all, or [pkt]
   itself when it is at least that long already. *)
let pad_to pkt size =
  let len = Bitbuf.length pkt in
  if len >= size then pkt
  else begin
    let out = Bitbuf.create size in
    Bitbuf.blit ~src:pkt ~src_off:0 ~dst:out ~dst_off:0 ~len;
    out
  end

(* The content store, keyed by the unsigned 32-bit name hash, by the
   [int32] form Name.hash32 returns. *)
let name_key h = Int32.to_int h land 0xFFFF_FFFF
let cache_find env h = Dip_core.Env.find_content env (name_key h)
let cache_insert env h v = Dip_core.Env.store_content env (name_key h) v

(* The fastest of [n] interleaved timings of each pass, in ns: every
   round runs [prepare] and then times each pass once, in order, so a
   slow phase of the machine hits every pass alike; interference only
   ever adds time, so a pass's minimum is the best estimate of its
   cost. One untimed round warms caches first. *)
let fastest ?(prepare = ignore) ~n passes =
  let time pass =
    prepare ();
    let t0 = Dip_obs.Clock.now_ns () in
    pass ();
    float_of_int (Dip_obs.Clock.elapsed_ns t0)
  in
  List.iter (fun pass -> ignore (time pass)) passes;
  let best = Array.make (List.length passes) infinity in
  for _ = 1 to n do
    List.iteri (fun i pass -> best.(i) <- Float.min best.(i) (time pass)) passes
  done;
  Array.to_list best

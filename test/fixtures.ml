(* Topology shapes, arrival processes and padding that only the tests
   use: a star and a dumbbell as extra generator cases for the
   adjacency oracle, seeded arrival times to drive a simulator, and a
   header padded out to a wire size. *)

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

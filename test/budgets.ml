(* Timing floors: what the instrumentation, the worker pool, the
   program cache and the FIB must cost relative to the path each one
   sits on. Every floor compares passes timed together by
   [Fixtures.fastest], so it holds on a noisy machine as long as the
   fastest passes are clean. Prints one line per floor and exits 1 if
   any fails.

   Run with `dune exec test/budgets.exe`; `dune runtest` does not run
   it, since wall-clock floors depend on the machine. *)

open Dip_core
module Bitbuf = Dip_bitbuf.Bitbuf
module Ipaddr = Dip_tables.Ipaddr
module Prng = Dip_stdext.Prng

let registry = Ops.default_registry ()
let failed = ref false

let floor name ok detail =
  Printf.printf "%s %s: %s\n%!" (if ok then "ok  " else "FAIL") name detail;
  if not ok then failed := true

let dip_env ?prog_cache_capacity () =
  let env = Env.create ?prog_cache_capacity ~name:"budget" () in
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
  env

let dip32 ?(dst = "10.1.2.3") () =
  Realize.ipv4 ~src:(Ipaddr.V4.of_string "192.0.2.1")
    ~dst:(Ipaddr.V4.of_string dst) ~payload:(String.make 100 'x') ()

(* [count] cached DIP-32 hops through one router. *)
let hops ?obs ?verify ~count env =
  let pkt = dip32 () in
  fun () ->
    for _ = 1 to count do
      Bitbuf.set_uint8 pkt 2 64;
      ignore
        (Sys.opaque_identity
           (Engine.process ?obs ?verify ~registry env ~now:0.0 ~ingress:0 pkt))
    done

let overhead ~base ~with_ = (with_ -. base) /. base

(* Span sampling at the default rate costs under 15% of a hop. *)
let obs_floor () =
  match
    Fixtures.fastest ~n:100
      [
        hops ~count:10_000 (dip_env ());
        hops ~count:10_000 ~obs:(Obs.create (Dip_obs.Metrics.create ())) (dip_env ());
      ]
  with
  | [ off; on ] ->
      let frac = overhead ~base:off ~with_:on in
      floor "obs overhead < 15%" (frac < 0.15)
        (Printf.sprintf "%+.1f%% (%.0f -> %.0f ns/hop)" (100.0 *. frac)
           (off /. 1e4) (on /. 1e4))
  | _ -> assert false

(* An armed flight ring costs under 5% over the observer alone. *)
let flight_floor () =
  let ring = Dip_obs.Flight.create ~pid:0 ~tid:0 () in
  let env = dip_env () in
  Progcache.set_flight env.Env.prog_cache (Some ring);
  match
    Fixtures.fastest ~n:100
      [
        hops ~count:10_000 ~obs:(Obs.create (Dip_obs.Metrics.create ())) (dip_env ());
        hops ~count:10_000 ~obs:(Obs.create ~flight:ring (Dip_obs.Metrics.create ())) env;
      ]
  with
  | [ obs; fl ] ->
      let frac = overhead ~base:obs ~with_:fl in
      floor "flight over obs < 5%" (frac < 0.05)
        (Printf.sprintf "%+.1f%% (%.0f -> %.0f ns/hop)" (100.0 *. frac)
           (obs /. 1e4) (fl /. 1e4))
  | _ -> assert false

(* The pool's hand-off: at one domain it keeps 0.9x the sequential
   fold's rate; with 4 cores, 4 domains reach 2x. 4096 packets over
   64 flows, in batches of 256. *)
let mcore_floor () =
  let n = 4096 and batch = 256 in
  let pkts =
    Array.init n (fun i -> dip32 ~dst:(Printf.sprintf "10.1.%d.%d" (i mod 64) (i / 64 mod 250)) ())
  in
  let items = Array.map (fun pkt -> { Dip_mcore.Pool.now = 0.0; ingress = 0; pkt }) pkts in
  let batches = Array.init (n / batch) (fun b -> Array.sub items (b * batch) batch) in
  let reset () = Array.iter (fun p -> Bitbuf.set_uint8 p 2 64) pkts in
  let env = dip_env () in
  let sequential () =
    Array.iter
      (fun pkt ->
        ignore (Sys.opaque_identity (Engine.process ~registry env ~now:0.0 ~ingress:0 pkt)))
      pkts
  in
  let cores = Domain.recommended_domain_count () in
  let domains = if cores >= 4 then 4 else 1 in
  let pool =
    Dip_mcore.Pool.create ~domains
      (Dip_mcore.Snapshot.v ~registry ~mk_env:(fun _ -> dip_env ()) ())
  in
  let pooled () =
    Array.iter (fun b -> ignore (Sys.opaque_identity (Dip_mcore.Pool.process_batch pool b))) batches
  in
  let times = Fixtures.fastest ~prepare:reset ~n:50 [ sequential; pooled ] in
  Dip_mcore.Pool.shutdown pool;
  match times with
  | [ seq; par ] ->
      let need = if domains = 1 then 0.9 else 2.0 in
      floor
        (Printf.sprintf "mcore %d-domain pool >= %.1fx sequential" domains need)
        (seq /. par >= need)
        (Printf.sprintf "%.2fx (%d cores)" (seq /. par) cores)
  | _ -> assert false

(* The program cache skips parse and static verification: a cached
   hop runs at least 4.56x faster than a cold one. *)
let cache_floor () =
  let verify = Dip_analysis.verifier ~registry () in
  match
    Fixtures.fastest ~n:50
      [
        hops ~count:2_000 ~verify (dip_env ~prog_cache_capacity:0 ());
        hops ~count:2_000 ~verify (dip_env ~prog_cache_capacity:512 ());
      ]
  with
  | [ cold; cached ] ->
      floor "cache cold/cached parse+verify >= 4.56" (cold /. cached >= 4.56)
        (Printf.sprintf "%.2fx (%.0f -> %.0f ns/hop)" (cold /. cached)
           (cold /. 2e3) (cached /. 2e3))
  | _ -> assert false

(* The FIB against the binary trie at 50k BGP-shaped v4 routes (10k
   v6): 2x on v4, 1.5x on v6, over Zipf traffic. *)
let fib_floor () =
  let module Fib = Dip_tables.Fib in
  let module Trie = Dip_tables.Lpm_trie in
  let module Workload = Dip_netsim.Workload in
  let g = Prng.create 11L in
  let port () = Prng.zipf g ~n:12 ~s:1.1 in
  let ps = Workload.v4_prefixes ~seed:42L ~count:50_000 in
  let fib = Fib.V4.create () and trie = Trie.create () in
  Array.iter
    (fun (a, len) ->
      let p = port () in
      Fib.V4.insert fib a ~len p;
      Trie.insert trie ~bits:(Ipaddr.V4.bit a) ~len p)
    ps;
  let traffic = Workload.v4_traffic ~seed:43L ~prefixes:ps ~flows:20_000 ~packets:200_000 ~skew:1.05 in
  let p6 = Workload.v6_prefixes ~seed:44L ~count:10_000 in
  let fib6 = Fib.V6.create () and trie6 = Trie.create () in
  Array.iter
    (fun (a, len) ->
      let p = port () in
      Fib.V6.insert fib6 a ~len p;
      Trie.insert trie6 ~bits:(Ipaddr.V6.bit a) ~len p)
    p6;
  (* Each v6 destination is a Zipf-popular prefix with random host
     bits. *)
  let g6 = Prng.create 29L in
  let host n w =
    if n <= 0 then Prng.next64 g6
    else if n >= 64 then w
    else Int64.logor w (Int64.logand (Prng.next64 g6) (Int64.shift_right_logical (-1L) n))
  in
  let traffic6 =
    Array.init 50_000 (fun _ ->
        let (hi, lo), len = p6.(Prng.zipf g6 ~n:10_000 ~s:1.05 - 1) in
        let hi = host len hi in
        (hi, host (len - 64) lo))
  in
  let sum f a = fun () -> ignore (Sys.opaque_identity (Array.fold_left (fun acc x -> acc + f x) 0 a)) in
  let of_trie = function Some (_, p) -> p | None -> 0 in
  match
    Fixtures.fastest ~n:5
      [
        sum (Fib.V4.lookup_id fib) traffic;
        sum (fun dst -> of_trie (Trie.lookup_ipv4 trie dst)) traffic;
        sum (fun (hi, lo) -> Fib.V6.lookup_id fib6 hi lo) traffic6;
        sum (fun dst -> of_trie (Trie.lookup trie6 ~bits:(Ipaddr.V6.bit dst) ~len:128)) traffic6;
      ]
  with
  | [ f4; t4; f6; t6 ] ->
      floor "fib v4 >= 2.0x trie" (t4 /. f4 >= 2.0) (Printf.sprintf "%.2fx" (t4 /. f4));
      floor "fib v6 >= 1.5x trie" (t6 /. f6 >= 1.5) (Printf.sprintf "%.2fx" (t6 /. f6))
  | _ -> assert false

let () =
  obs_floor ();
  flight_floor ();
  mcore_floor ();
  cache_floor ();
  fib_floor ();
  if !failed then exit 1

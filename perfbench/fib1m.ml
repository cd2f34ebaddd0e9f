(* fib1m-dip32: one DIP-32 router holding a million BGP-shaped routes
   (Workload.v4_prefixes), fed Zipf x Pareto destinations
   (Workload.v4_traffic) in 64-byte packets through
   Engine.process_batch, closed loop, one fixed-size batch at a time.
   Every packet hits the program-cache hint and the FIB misses the CPU
   caches; set-up is the FIB's write path, a million Fib.V4.insert. *)

open Dip_core
open Harness
module Bitbuf = Dip_bitbuf.Bitbuf
module Fib = Dip_tables.Fib
module Trie = Dip_tables.Lpm_trie
module Ipaddr = Dip_tables.Ipaddr
module Workload = Dip_netsim.Workload
module Prng = Dip_stdext.Prng

let ports = 16 (* next hops are router ports 1..16; port 0 faces the source *)
let batch = 256
let pkt_size = 64
let setups = 5
let routes = function Full -> 1_000_000 | Small -> 20_000
let stream = function Full -> 2_000_000 | Small -> 40_000
let replay_sample = function Full -> 20_000 | Small -> 2_000
let fib_sample = function Full -> 500_000 | Small -> 20_000

type inputs = {
  prefixes : (Ipaddr.V4.t * int) array;
  hops : int array;
  dsts : int array;  (** destination stream, as unsigned ints *)
  expect : Bytes.t;  (** the trie oracle's egress port per stream entry *)
}

(* The binary-trie oracle lives only inside this function: built
   before set-up, unreachable before anything is timed. *)
let gen ~scale ~seed =
  let prefixes = Workload.v4_prefixes ~seed ~count:(routes scale) in
  let g = Prng.create (Int64.add seed 1L) in
  let hops = Array.map (fun _ -> 1 + Prng.int g ports) prefixes in
  let traffic =
    Workload.v4_traffic ~seed:(Int64.add seed 2L) ~prefixes ~flows:(routes scale)
      ~packets:(stream scale) ~skew:1.05
  in
  let trie = Trie.create () in
  Array.iteri
    (fun i (a, len) -> Trie.insert trie ~bits:(Ipaddr.V4.bit a) ~len hops.(i))
    prefixes;
  let expect =
    Bytes.init (Array.length traffic) (fun i ->
        match Trie.lookup_ipv4 trie traffic.(i) with
        | Some (_, p) -> Char.chr p
        | None -> '\000')
  in
  {
    prefixes;
    hops;
    dsts = Array.map (fun a -> Int32.to_int a land 0xFFFF_FFFF) traffic;
    expect;
  }

let setup inp =
  let env = Env.create ~name:"r0" () in
  Array.iteri
    (fun i (a, len) -> Fib.V4.insert env.Env.v4_routes a ~len inp.hops.(i))
    inp.prefixes;
  env

let src = Ipaddr.V4.of_string "192.0.2.1"

let packet ~dst ~id =
  let payload = Bytes.make (pkt_size - 26) 'x' in
  Bytes.set_int32_be payload 0 (Int32.of_int id);
  Realize.ipv4 ~src ~dst ~payload:(Bytes.to_string payload) ()

type state = {
  env : Env.t;
  bufs : Bitbuf.t array;
  dst_off : int;
  mutable next : int;  (** stream cursor *)
  mutable checked : int;
  mutable failed : int;
  mutable digest : int;
}

let fill st inp =
  let n = Array.length inp.dsts in
  Array.iteri
    (fun j b ->
      Bitbuf.set_uint32 b st.dst_off (Int32.of_int inp.dsts.((st.next + j) mod n));
      Bitbuf.set_uint8 b 2 64)
    st.bufs

let check st inp res =
  let n = Array.length inp.dsts in
  Array.iteri
    (fun j (v, _) ->
      let i = (st.next + j) mod n in
      let got = match v with Engine.Forwarded [ p ] -> p | _ -> -1 in
      if got <> Char.code (Bytes.get inp.expect i) then st.failed <- st.failed + 1;
      if st.checked + j < n then st.digest <- mix st.digest got)
    res;
  st.checked <- st.checked + Array.length res;
  st.next <- (st.next + Array.length res) mod n

let batch_call st =
  Engine.process_batch ~registry st.env ~now:0.0 ~ingress:0 st.bufs

(* At least one pass over the stream, then until [seconds] have gone
   by, recorded into [ph]. Only the process_batch call is inside the
   timed region. *)
let phase st inp ph ~seconds tr =
  let n = Array.length inp.dsts in
  let deadline = clock () + ns_of_s seconds in
  let t_phase = clock () in
  let parent = match tr with Some tr -> open_span tr | None -> 0 in
  while clock () < deadline || st.checked < n do
    fill st inp;
    let t0 = clock () in
    let res = batch_call st in
    let dt = clock () - t0 in
    (match tr with
    | Some tr -> Flight.record tr.ring ev_group dt (open_span tr) parent
    | None -> ());
    Phase.group ph ~ns:dt ~pkts:batch;
    check st inp res
  done;
  (match tr with
  | Some tr -> close_span tr ev_phase ~id:parent ~parent:0 ~t0:t_phase
  | None -> ())

(* Minor words per packet over a fixed number of batches, untimed. *)
let alloc_words st inp =
  let batches = 32 in
  let words = ref 0.0 in
  for _ = 1 to batches do
    fill st inp;
    let w0 = Gc.minor_words () in
    let res = batch_call st in
    words := !words +. (Gc.minor_words () -. w0);
    check st inp res
  done;
  !words /. float_of_int (batches * batch)

let run ~scale ~seed ~seconds ~tracer =
  let inp = gen ~scale ~seed in
  let bufs = Array.init batch (fun j -> packet ~dst:0l ~id:j) in
  let dst_off = (Result.get_ok (Packet.parse bufs.(0))).Packet.loc_base in
  let ns = replay_sample scale in
  let sample = Array.init ns (fun i -> packet ~dst:(Int32.of_int inp.dsts.(i)) ~id:i) in
  let replay_expect = Array.init ns (fun i -> Char.code (Bytes.get inp.expect i)) in
  let live0 = live_bytes () in
  (* Each set-up is followed by its own timed sub-phase, and the
     figures are taken over all of them: a million-route table's speed
     depends on where its 128 MB land in (virtualised) physical memory,
     which differs from one table to the next. *)
  let plain_s = match tracer with None -> seconds | Some _ -> seconds /. 2.0 in
  let ph = Phase.create () and sub_pps = Array.make setups 0.0 in
  let times = Array.make setups 0.0 and last = ref None in
  let prior_checked = ref 0 and prior_failed = ref 0 and digest = ref digest_init in
  for k = 0 to setups - 1 do
    (match !last with
    | Some (st : state) ->
        prior_checked := !prior_checked + st.checked;
        prior_failed := !prior_failed + st.failed
    | None -> ());
    last := None;
    Gc.full_major ();
    let t0 = clock () in
    let env = setup inp in
    times.(k) <- s_of_ns (clock () - t0);
    let st = { env; bufs; dst_off; next = 0; checked = 0; failed = 0; digest = digest_init } in
    Gc.full_major ();
    let ns0 = ph.Phase.total_ns and pkts0 = ph.Phase.total_pkts in
    phase st inp ph ~seconds:(plain_s /. float_of_int setups) None;
    sub_pps.(k) <- 1e9 *. per (ph.Phase.total_pkts - pkts0) (ph.Phase.total_ns - ns0);
    if k = 0 then digest := st.digest;
    last := Some st
  done;
  let st = Option.get !last in
  let env = st.env in
  let live1 = live_bytes () - Phase.bytes ph in
  let alloc = alloc_words st inp in
  let layers =
    match tracer with
    | None -> []
    | Some tr ->
        let c = env.Env.prog_cache in
        let h0 = Progcache.hits c and m0 = Progcache.misses c in
        let e0 = Progcache.evictions c in
        let tph = Phase.create () in
        phase st inp tph ~seconds:(seconds /. 2.0) (Some tr);
        let hits = Progcache.hits c - h0 and misses = Progcache.misses c - m0 in
        let evicts = Progcache.evictions c - e0 in
        fill st inp;
        let dsts =
          Array.init (fib_sample scale) (fun i -> Int32.of_int inp.dsts.(i))
        in
        let r = spanned tr ev_rung (fun _ -> Simladder.engine_rungs ~dsts ~env bufs) in
        let fig2 = spanned tr ev_rung (fun _ -> Fnmix.figure2 ()) in
        let engine_ns = Phase.mean_ns tph and e2e_ns = Phase.mean_ns ph in
        let dispatch = engine_ns -. r.hinted_ns -. r.fib_ns in
        let residual =
          ladder ~workload:"fib1m-dip32" ~unit:"pkt" ~e2e_ns
            [ ("progcache", r.hinted_ns); ("fib", r.fib_ns); ("dispatch", dispatch) ]
        in
        let overhead = pct (Phase.pps ph -. Phase.pps tph) (Phase.pps tph) in
        let fs = Fib.V4.stats env.Env.v4_routes in
        Simladder.rung_layers r @ fig2
        @ [
            ("progcache.hit_ratio", per hits (hits + misses));
            ("progcache.evict_per_kpkt", 1000.0 *. per evicts tph.Phase.total_pkts);
            ("engine.ns", engine_ns);
            ("engine.dispatch_self_ns", dispatch);
            ("engine.alloc_words", alloc);
            ("fib.insert_ns", median times *. 1e9 /. float_of_int (routes scale));
            ("fib.bytes_per_route", per fs.Fib.V4.total_bytes fs.Fib.V4.routes);
            ("ladder.residual_pct", residual);
            ("trace.overhead_pct", overhead);
          ]
  in
  let rp = Simladder.replay ~seed ~env ~packets:sample ~expect:replay_expect () in
  let attempted = !prior_checked + st.checked + rp.Simladder.offered in
  let failed = !prior_failed + st.failed + rp.Simladder.wrong in
  let ok_ratio = 1.0 -. per failed attempted in
  Printf.printf "fib1m-dip32: %d routes, %d packets checked, sub-phases at %s pkt/s\n"
    (routes scale) attempted
    (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.0f") sub_pps)));
  {
    attempted;
    failed;
    e2e =
      [
        ("setup_s", median times);
        ("pkts_per_s", Phase.pps ph);
        ("mem_mb", mb (live1 - live0));
        ("ok_ratio", ok_ratio);
        ("pkt_ns_p50", Phase.p50 ph);
        ("pkt_ns_p99", Phase.p99 ph);
      ]
      @ rp.Simladder.replay_e2e;
    layers;
    exact =
      [ ("ok_ratio", ok_ratio); ("alloc_words_per_pkt", alloc) ] @ rp.Simladder.replay_e2e;
    digest = hex (mix !digest rp.Simladder.replay_digest);
  }

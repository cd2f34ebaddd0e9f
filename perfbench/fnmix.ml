(* fnmix: one router holding the state of every realization -- v4/v6
   routes, NDN FIB + PIT, OPT identity, XIA table, telemetry identity
   -- fed a Zipf-popular mix over more distinct FN programs than its
   512-entry program cache holds, at the paper's 128/768/1500-byte
   sizes, one packet at a time through Engine.process with the static
   verifier, as on a router that accepts host-built programs. NDN
   interests are followed by their data, so PIT writes sit beside the
   reads. The packets form a ring that is replayed pass after pass;
   every pass leaves the PIT empty, so each pass repeats exactly. *)

open Dip_core
open Harness
module Bitbuf = Dip_bitbuf.Bitbuf
module Ipaddr = Dip_tables.Ipaddr
module Name = Dip_tables.Name
module Pit = Dip_tables.Pit
module Fib = Dip_tables.Fib
module Prng = Dip_stdext.Prng
module Drkey = Dip_opt.Drkey
module Xid = Dip_xia.Xid

type kind = Dip32 | Dip128 | Ndn_interest | Ndn_data | Opt | Ndn_opt | Xia | Tel | Epic

let kinds = [| Dip32; Dip128; Ndn_interest; Ndn_data; Opt; Ndn_opt; Xia; Tel; Epic |]

let kind_name = function
  | Dip32 -> "dip32"
  | Dip128 -> "dip128"
  | Ndn_interest -> "ndn_interest"
  | Ndn_data -> "ndn_data"
  | Opt -> "opt"
  | Ndn_opt -> "ndn_opt"
  | Xia -> "xia"
  | Tel -> "tel"
  | Epic -> "epic"

(* What the router must decide: forward out of one port, or finish
   with no forwarding decision (an OPT-only program has no forwarding
   FN; the repository's own tests treat that verdict the same way). *)
type expect = Fwd of int | No_route

let sizes = [| 128; 768; 1500 |]

(* Next-header values per realization: each is a distinct program
   (the cache key covers the basic header), 9 x 96 = 864 > 512. *)
let variants = function Full -> 96 | Small -> 24
let ring_len = function Full -> 16384 | Small -> 2048
let zipf_s = 0.9
let group = 64

(* --- the router's state -------------------------------------------- *)

let secret = Drkey.secret_of_string "fnmix-router-key"
let dst_secret = Drkey.secret_of_string "fnmix-host-key-0"
let v6_port = 2
let ndn_port = 3
let xia_port = 4

(* (prefix, length, port); destinations are drawn inside them. *)
let v4_routes =
  [| ("10.0.0.0", 8, 1); ("172.16.0.0", 12, 5); ("198.18.0.0", 15, 6); ("100.64.0.0", 10, 7) |]

let v4_bases =
  Array.map (fun (a, len, port) -> (Int32.to_int (Ipaddr.V4.of_string a) land 0xFFFF_FFFF, len, port)) v4_routes

let src4 = Ipaddr.V4.of_string "192.0.2.1"
let src6 = Ipaddr.V6.of_string "2001:db8:1::1"
let dst6 = Ipaddr.V6.of_string "2001:db8::42"
let dest_ad = Xid.of_name Xid.AD "fnmix-as"

let dag =
  Dip_xia.Dag.fallback
    ~intent:(Xid.of_name Xid.SID "fnmix-service")
    ~via:[ dest_ad; Xid.of_name Xid.HID "fnmix-host" ]

let epic_src = 7l
let stamp = 1l

(* Content names with pairwise-distinct 32-bit hashes: the FIB and
   PIT key on the hash. *)
let catalog =
  let seen = Hashtbl.create 1024 in
  List.init 1100 Dip_netsim.Workload.catalog_name
  |> List.filter (fun n ->
         let h = Name.hash32 n in
         if Hashtbl.mem seen h then false
         else begin
           Hashtbl.add seen h ();
           true
         end)
  |> Array.of_list
  |> fun a -> Array.sub a 0 1024

let session v = Int64.of_int (4096 + v)

let setup () =
  let env = Env.create ~name:"r0" () in
  let t0 = clock () in
  Array.iter
    (fun (a, len, port) -> Fib.V4.insert env.Env.v4_routes (Ipaddr.V4.of_string a) ~len port)
    v4_routes;
  let insert_ns = clock () - t0 in
  Fib.V6.insert env.Env.v6_routes (Ipaddr.V6.of_string "2001:db8::") ~len:32 v6_port;
  Array.iter (fun n -> Dip_tables.Name_fib.insert env.Env.fib n ndn_port) catalog;
  Env.set_opt_identity env ~secret ~hop:1;
  Dip_xia.Router.add_route env.Env.xia dest_ad xia_port;
  Env.set_telemetry_identity env ~node_id:1 ~queue_depth:(fun () -> 0);
  (env, Dip_analysis.verifier ~registry (), insert_ns)

(* --- packets ------------------------------------------------------- *)

let v4_dst g =
  let base, len, port = v4_bases.(Prng.int g (Array.length v4_bases)) in
  (Int32.of_int (base lor Prng.int g (1 lsl (32 - len))), port)

let raw kind ~g ~name ~variant payload =
  let opt_keys () =
    let session_id = session variant in
    (session_id, Drkey.derive dst_secret ~session_id)
  in
  match kind with
  | Dip32 ->
      let dst, port = v4_dst g in
      (Realize.ipv4 ~src:src4 ~dst ~payload (), Fwd port)
  | Dip128 -> (Realize.ipv6 ~src:src6 ~dst:dst6 ~payload (), Fwd v6_port)
  | Ndn_interest -> (Realize.ndn_interest ~name ~payload (), Fwd ndn_port)
  | Ndn_data -> (Realize.ndn_data ~name ~content:payload (), Fwd 0)
  | Opt ->
      let session_id, dest_key = opt_keys () in
      ( Realize.opt ~hops:1 ~session_id ~timestamp:stamp ~dest_key ~payload (),
        No_route )
  | Ndn_opt ->
      let session_id, dest_key = opt_keys () in
      ( Realize.ndn_opt_data ~hops:1 ~session_id ~timestamp:stamp ~dest_key ~name
          ~content:payload (),
        Fwd 0 )
  | Xia -> (Realize.xia ~dag ~payload (), Fwd xia_port)
  | Tel ->
      let dst, port = v4_dst g in
      (Realize.ipv4_telemetry ~max_hops:4 ~src:src4 ~dst ~payload (), Fwd port)
  | Epic ->
      let dst, port = v4_dst g in
      ( Realize.epic ~hops:1 ~src_id:epic_src ~timestamp:stamp
          ~hop_keys:[ Dip_epic.Protocol.derive_key secret ~src:epic_src ~timestamp:stamp ]
          ~src:src4 ~dst ~payload (),
        Fwd port )

let header_len =
  let lens =
    Array.map
      (fun k -> Bitbuf.length (fst (raw k ~g:(Prng.create 0L) ~name:catalog.(0) ~variant:0 "")))
      kinds
  in
  fun kind ->
    let rec find i = if kinds.(i) = kind then lens.(i) else find (i + 1) in
    find 0

(* A packet of [size] bytes whose payload starts with its index [id]
   (what the one-router replay's sinks read back); the next-header byte
   selects the program variant. *)
let build kind ~g ~id ~size ~variant ~name =
  let payload = Bytes.make (size - header_len kind) 'x' in
  Bytes.set_int32_be payload 0 (Int32.of_int id);
  let pkt, e = raw kind ~g ~name ~variant (Bytes.to_string payload) in
  Bitbuf.set_uint8 pkt 0 variant;
  (pkt, e)

type flow = One of kind | Pair of kind * kind

let flows =
  [|
    One Dip32;
    One Dip128;
    Pair (Ndn_interest, Ndn_data);
    One Opt;
    Pair (Ndn_interest, Ndn_opt);
    One Xia;
    One Tel;
    One Epic;
  |]

type inputs = {
  pristine : Bitbuf.t array;
  hlen : int array;  (** header bytes: all the engine may rewrite *)
  expect : expect array;
}

let gen ~scale ~seed =
  let g = Prng.create seed in
  let nv = variants scale and n = ring_len scale in
  let nf = Array.length flows in
  (* The mix over flows is fixed, so every seed offers the same work;
     the seed picks which next-header variants of each flow are
     popular, and destinations, names and sizes. *)
  let rank =
    Array.init nf (fun _ ->
        let a = Array.init nv Fun.id in
        Prng.shuffle g a;
        a)
  in
  let pristine = Array.make n (Bitbuf.create 0) in
  let kind = Array.make n Dip32 and expect = Array.make n No_route in
  let emit pos k variant name =
    let pkt, e = build k ~g ~id:pos ~size:sizes.(Prng.int g 3) ~variant ~name in
    pristine.(pos) <- pkt;
    kind.(pos) <- k;
    expect.(pos) <- e
  in
  (* Data owed to earlier interests: (due position, kind, variant,
     name), earliest first. Pairs stop near the ring's end so every
     interest is answered within the pass. *)
  let pending = ref [] and pairs = ref 0 in
  for pos = 0 to n - 1 do
    match !pending with
    | (due, k, variant, name) :: rest when due <= pos ->
        pending := rest;
        emit pos k variant name
    | _ -> (
        let rec draw () =
          let f = Prng.int g nf in
          match flows.(f) with
          | Pair _ when pos > n - 128 -> draw ()
          | flow -> (flow, rank.(f).(Prng.zipf g ~n:nv ~s:zipf_s - 1))
        in
        match draw () with
        | One k, v -> emit pos k v catalog.(0)
        | Pair (first, second), v ->
            let name = catalog.(!pairs mod Array.length catalog) in
            incr pairs;
            emit pos first v name;
            let due = pos + 1 + Prng.int g 32 in
            pending :=
              List.merge
                (fun (a, _, _, _) (b, _, _, _) -> compare a b)
                !pending
                [ (due, second, v, name) ])
  done;
  if !pending <> [] then failwith "fnmix: the ring ended with unanswered interests";
  { pristine; hlen = Array.map header_len kind; expect }

(* --- the timed loop ------------------------------------------------ *)

type state = {
  env : Env.t;
  verify : Packet.view -> (unit, string) Stdlib.result;
  work : Bitbuf.t array;
  verd : Engine.verdict array;
  mutable pos : int;
  mutable passes : int;
  mutable checked : int;
  mutable failed : int;
  mutable digest : int;
}

let restore st inp i =
  Bitbuf.blit ~src:inp.pristine.(i) ~src_off:0 ~dst:st.work.(i) ~dst_off:0
    ~len:inp.hlen.(i)

let process st i =
  fst (Engine.process ~verify:st.verify ~registry st.env ~now:0.0 ~ingress:0 st.work.(i))

let ok e v =
  match (e, v) with
  | Fwd p, Engine.Forwarded [ q ] -> p = q
  | No_route, Engine.Dropped "no-forwarding-decision" -> true
  | _ -> false

let code = function
  | Engine.Forwarded [ p ] -> p
  | Engine.Dropped _ -> 1000
  | _ -> 2000

(* One group of consecutive ring packets; groups never straddle the
   ring's end, so a pass ends on a group boundary. *)
let step st inp ph tr ~parent =
  let n = Array.length inp.pristine in
  let base = st.pos in
  let cnt = min group (n - base) in
  for j = 0 to cnt - 1 do
    restore st inp (base + j)
  done;
  let t0 = clock () in
  for j = 0 to cnt - 1 do
    st.verd.(j) <- process st (base + j)
  done;
  let dt = clock () - t0 in
  (match tr with
  | Some tr -> Flight.record tr.ring ev_group dt (open_span tr) parent
  | None -> ());
  Phase.group ph ~ns:dt ~pkts:cnt;
  for j = 0 to cnt - 1 do
    let i = base + j in
    if not (ok inp.expect.(i) st.verd.(j)) then st.failed <- st.failed + 1;
    if st.passes = 0 then st.digest <- mix (mix st.digest i) (code st.verd.(j))
  done;
  st.checked <- st.checked + cnt;
  if base + cnt = n then begin
    st.pos <- 0;
    st.passes <- st.passes + 1
  end
  else st.pos <- base + cnt

(* At least one pass, then until [seconds] have gone by, ending on a
   pass boundary (the PIT is empty there). *)
let phase st inp ~seconds tr =
  let ph = Phase.create () in
  let deadline = clock () + ns_of_s seconds in
  let t0 = clock () in
  let parent = match tr with Some tr -> open_span tr | None -> 0 in
  while clock () < deadline || st.pos <> 0 || st.passes = 0 do
    step st inp ph tr ~parent
  done;
  (match tr with
  | Some tr -> close_span tr ev_phase ~id:parent ~parent:0 ~t0
  | None -> ());
  ph

(* --- Figure 2's decomposition --------------------------------------- *)

(* One packet per realization and paper size on a warm router, run
   over and over with its header restored (and the PIT entry it
   consumes or leaves put back) between runs. The same probe on every
   workload, so engine.ns.<realization> is comparable across them. *)
let figure2 () =
  let env, _, _ = setup () in
  let name = catalog.(0) in
  let key = Name.hash32 name in
  Array.to_list
    (Array.map
       (fun kind ->
         let ns =
           Array.map
             (fun size ->
               let pkt, _ =
                 build kind ~g:(Prng.create 5L) ~id:0 ~size ~variant:0 ~name
               in
               let pristine = Bitbuf.copy pkt and hl = header_len kind in
               ns_per_call ~min_ns:2_000_000 1 (fun _ ->
                   Bitbuf.blit ~src:pristine ~src_off:0 ~dst:pkt ~dst_off:0 ~len:hl;
                   (match kind with
                   | Ndn_data | Ndn_opt ->
                       ignore (Pit.insert env.Env.pit ~key ~port:0 ~now:0.0 ~lifetime:1e9)
                   | _ -> ());
                   ignore
                     (Sys.opaque_identity
                        (Engine.process ~registry env ~now:0.0 ~ingress:0 pkt));
                   match kind with
                   | Ndn_interest -> ignore (Pit.consume env.Env.pit ~key ~now:0.0)
                   | _ -> ()))
             sizes
         in
         ("engine.ns." ^ kind_name kind, Array.fold_left ( +. ) 0.0 ns /. 3.0))
       kinds)

(* --- the workload --------------------------------------------------- *)

let run ~scale ~seed ~seconds ~tracer =
  let inp = gen ~scale ~seed in
  let n = Array.length inp.pristine in
  let work = Array.map Bitbuf.copy inp.pristine in
  let replay_expect = Array.map (function Fwd p -> p | No_route -> -1) inp.expect in
  let live0 = live_bytes () in
  let setup_s, (env, verify, insert_ns) = time_setups setup in
  let st =
    {
      env;
      verify;
      work;
      verd = Array.make group Engine.Quiet;
      pos = 0;
      passes = 0;
      checked = 0;
      failed = 0;
      digest = digest_init;
    }
  in
  let plain_s = match tracer with None -> seconds | Some _ -> seconds /. 2.0 in
  Gc.full_major ();
  let ph = phase st inp ~seconds:plain_s None in
  let live1 = live_bytes () - Phase.bytes ph in
  (* One more pass, untimed: allocation and cache misses per pass are
     exact, whatever the timed phase's length. *)
  let c = env.Env.prog_cache in
  let m0 = Progcache.misses c in
  let alloc =
    words_per_call n (fun i ->
        restore st inp i;
        ignore (process st i))
  in
  let misses_per_pass = Progcache.misses c - m0 in
  let layers =
    match tracer with
    | None -> []
    | Some tr ->
        let h0 = Progcache.hits c and m0 = Progcache.misses c in
        let e0 = Progcache.evictions c in
        let tph = phase st inp ~seconds:(seconds /. 2.0) (Some tr) in
        let hits = Progcache.hits c - h0 and misses = Progcache.misses c - m0 in
        let evicts = Progcache.evictions c - e0 in
        let r = spanned tr ev_rung (fun _ -> Simladder.engine_rungs ~env inp.pristine) in
        let fig2 = spanned tr ev_rung (fun _ -> figure2 ()) in
        let engine_ns = Phase.mean_ns tph and e2e_ns = Phase.mean_ns ph in
        let verify_share = r.verify_ns *. per misses tph.Phase.total_pkts in
        let table = r.fib_ns *. r.v4_share in
        let dispatch = engine_ns -. r.hinted_ns -. verify_share -. table in
        let residual =
          ladder ~workload:"fnmix" ~unit:"pkt" ~e2e_ns
            [ ("progcache", r.hinted_ns); ("verify", verify_share); ("fib", table);
              ("dispatch", dispatch) ]
        in
        let overhead = pct (Phase.pps ph -. Phase.pps tph) (Phase.pps tph) in
        Printf.printf "fnmix: %d programs, hit ratio %.4f, %d evictions in %d packets\n"
          r.programs (per hits (hits + misses)) evicts tph.Phase.total_pkts;
        let fst_ = Fib.V4.stats env.Env.v4_routes in
        Simladder.rung_layers r @ fig2
        @ [
            ("progcache.hit_ratio", per hits (hits + misses));
            ("progcache.evict_per_kpkt", 1000.0 *. per evicts tph.Phase.total_pkts);
            ("engine.ns", engine_ns);
            ("engine.dispatch_self_ns", dispatch);
            ("engine.alloc_words", alloc);
            ("fib.insert_ns", per insert_ns (Array.length v4_routes));
            ("fib.bytes_per_route", per fst_.Fib.V4.total_bytes fst_.Fib.V4.routes);
            ("ladder.residual_pct", residual);
            ("trace.overhead_pct", overhead);
          ]
  in
  Phase.report "fnmix" ph;
  let rp =
    Simladder.replay ~seed ~verify ~env ~packets:inp.pristine ~expect:replay_expect ()
  in
  let attempted = st.checked + rp.Simladder.offered in
  let failed = st.failed + rp.Simladder.wrong in
  let ok_ratio = 1.0 -. per failed attempted in
  {
    attempted;
    failed;
    e2e =
      [
        ("setup_s", setup_s);
        ("pkts_per_s", Phase.pps ph);
        ("mem_mb", mb (live1 - live0));
        ("ok_ratio", ok_ratio);
        ("pkt_ns_p50", Phase.p50 ph);
        ("pkt_ns_p99", Phase.p99 ph);
      ]
      @ rp.Simladder.replay_e2e;
    layers;
    exact =
      [
        ("ok_ratio", ok_ratio);
        ("alloc_words_per_pkt", alloc);
        ("misses_per_pass", float_of_int misses_per_pass);
      ]
      @ rp.Simladder.replay_e2e;
    digest = hex (mix st.digest rp.Simladder.replay_digest);
  }

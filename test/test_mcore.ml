(* Tests for Dip_mcore, the domain-parallel batched data plane:
   flow-hash sharding, the dispatch barrier, batch ≡ sequential-fold
   equivalence (engine-level and pool-level), snapshot publication,
   per-worker metrics merging, and the headline determinism property:
   an N-domain simulator run delivers exactly what the single-domain
   run delivers. *)

open Dip_core
module Mcore = Dip_mcore
module Sim = Dip_netsim.Sim
module Bitbuf = Dip_bitbuf.Bitbuf
module Ipaddr = Dip_tables.Ipaddr
module Name = Dip_tables.Name

let v4 = Ipaddr.V4.of_string
let v6 = Ipaddr.V6.of_string
let registry = Ops.default_registry ()

(* --- Flow --- *)

let mk_ipv4 ?(payload = "flowtest") flow =
  Realize.ipv4 ~src:(v4 "192.0.2.1")
    ~dst:(v4 (Printf.sprintf "10.0.%d.%d" (flow / 250) (1 + (flow mod 250))))
    ~payload ()

let test_flow_deterministic () =
  let a = mk_ipv4 3 and b = mk_ipv4 3 in
  Alcotest.(check int) "same flow, same hash" (Mcore.Flow.hash a)
    (Mcore.Flow.hash b);
  (* The hash covers the match field, not the payload. *)
  let c = mk_ipv4 ~payload:"something-else-entirely" 3 in
  Alcotest.(check int) "payload-independent" (Mcore.Flow.hash a)
    (Mcore.Flow.hash c);
  Alcotest.(check bool) "non-negative" true (Mcore.Flow.hash a >= 0)

let test_flow_spreads () =
  (* 64 distinct destination addresses should not all land on one of
     4 workers (CRC-32 over the address field). *)
  let shards =
    List.init 64 (fun f -> Mcore.Flow.shard (mk_ipv4 f) ~workers:4)
  in
  List.iter
    (fun s -> Alcotest.(check bool) "in range" true (s >= 0 && s < 4))
    shards;
  let distinct = List.sort_uniq compare shards in
  Alcotest.(check bool) "uses several workers" true (List.length distinct > 1);
  List.iter
    (fun s -> Alcotest.(check int) "1 worker => shard 0" 0 s)
    (List.init 8 (fun f -> Mcore.Flow.shard (mk_ipv4 f) ~workers:1))

let test_flow_garbage_safe () =
  (* Unparsable buffers fall back to whole-buffer hashing and never
     raise. *)
  List.iter
    (fun s ->
      let buf = Bitbuf.of_string s in
      let h = Mcore.Flow.hash buf in
      Alcotest.(check int) "stable" h (Mcore.Flow.hash buf))
    [ ""; "\x00"; "abcdefgh"; String.make 64 '\xff' ]

let test_flow_match_field_agrees_with_analyzer () =
  (* Flow.match_field (raw-triple scan, absolute bits) and the
     analyzer's flow_field (decoded FNs, region-relative bits) must
     pick the same slice — the Sharding check protects exactly what
     the sharder hashes. *)
  let module Field = Dip_bitbuf.Field in
  let name = Name.of_string "/mcore/test" in
  List.iter
    (fun (label, pkt) ->
      let view =
        match Packet.parse pkt with Ok v -> v | Error e -> Alcotest.fail e
      in
      let rel = Dip_analysis.flow_field (Array.to_list view.Packet.fns) in
      match (Mcore.Flow.match_field pkt, rel) with
      | None, None -> ()
      | Some abs, Some rel ->
          Alcotest.(check int)
            (label ^ ": offset")
            (8 * view.Packet.loc_base + rel.Field.off_bits)
            abs.Field.off_bits;
          Alcotest.(check int) (label ^ ": length") rel.Field.len_bits
            abs.Field.len_bits
      | Some _, None -> Alcotest.failf "%s: only Flow found a field" label
      | None, Some _ -> Alcotest.failf "%s: only the analyzer found one" label)
    [
      ("ipv4", mk_ipv4 1);
      ( "ipv6",
        Realize.ipv6 ~src:(v6 "2001:db8::1") ~dst:(v6 "2001:db8::2")
          ~payload:"x" () );
      ("ndn", Realize.ndn_interest ~name ~payload:"" ());
      ( "xia",
        Realize.xia
          ~dag:(Dip_xia.Dag.direct (Dip_xia.Xid.of_name Dip_xia.Xid.SID "s"))
          ~payload:"x" () );
    ]

(* The flow hash as first written, on the decoded header: the oracle
   of the in-place one. *)
module Flow_ref = struct
  let fold = Int32.to_int
  let whole buf = fold (Dip_stdext.Crc32.digest_bytes (Bitbuf.to_bytes buf)) land max_int

  let match_field buf =
    match Header.decode buf with
    | Error _ -> None
    | Ok h ->
        if Header.header_length h > Bitbuf.length buf then None
        else begin
          let rec find i =
            if i >= h.Header.fn_num then None
            else
              let pos = Header.fn_offset i in
              match Opkey.of_int (Bitbuf.get_uint16 buf (pos + 4) land 0x7fff) with
              | Some k when (Registry.transfer k).Registry.t_match ->
                  Some (Bitbuf.get_uint16 buf pos, Bitbuf.get_uint16 buf (pos + 2))
              | _ -> find (i + 1)
          in
          match find 0 with
          | None -> None
          | Some (loc_bits, len_bits) ->
              if len_bits = 0 then None
              else
                Some
                  (Dip_bitbuf.Field.v
                     ~off_bits:((8 * Header.locations_offset h) + loc_bits)
                     ~len_bits)
        end

  let hash buf =
    match match_field buf with
    | None -> whole buf
    | Some f ->
        let first, byte_len = Dip_bitbuf.Field.byte_span f in
        let last = Stdlib.min (first + byte_len) (Bitbuf.length buf) in
        if first < 0 || first >= last then whole buf
        else
          fold
            (Dip_stdext.Crc32.digest_sub (Bitbuf.to_bytes buf) ~pos:first
               ~len:(last - first))
          land max_int

  let shard buf ~workers = if workers <= 1 then 0 else hash buf mod workers
end

(* The in-place flow hash against the decoded form: every realization
   and random program, and byte-mutated and truncated copies of them,
   give the same match field, hash and shard. *)
let prop_flow_in_place =
  let base = Array.of_list (Programs.realized ()) in
  QCheck.Test.make ~name:"flow: in-place = decoded form" ~count:2000
    QCheck.(pair (int_bound 1_000_000) (int_range 0 3))
    (fun (seed, damage) ->
      let g = Dip_stdext.Prng.create (Int64.of_int seed) in
      let s =
        if seed mod 3 = 0 then Programs.random_program g
        else base.(Dip_stdext.Prng.int g (Array.length base))
      in
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      for _ = 1 to damage do
        (* Mostly the header and triples, where the hash reads. *)
        let hot = min n (6 + (6 * Char.code (Bytes.get b 1)) + 2) in
        let i = if Dip_stdext.Prng.int g 4 = 0 then Dip_stdext.Prng.int g n else Dip_stdext.Prng.int g (max 1 hot) in
        Bytes.set b i (Char.chr (Dip_stdext.Prng.int g 256))
      done;
      let s = Bytes.to_string b in
      let s = if Dip_stdext.Prng.int g 4 = 0 then String.sub s 0 (Dip_stdext.Prng.int g (n + 1)) else s in
      let buf = Bitbuf.of_string s in
      Mcore.Flow.match_field buf = Flow_ref.match_field buf
      && Mcore.Flow.hash buf = Flow_ref.hash buf
      && List.for_all
           (fun workers -> Mcore.Flow.shard buf ~workers = Flow_ref.shard buf ~workers)
           [ 1; 2; 3; 4; 7 ])

(* Sharding a DIP-32 packet reads its triples and hashes its
   destination where they lie: nothing is allocated (35 words when it
   decoded the header and boxed the CRC). *)
let test_flow_shard_alloc () =
  let pkt = mk_ipv4 7 in
  let step () = ignore (Sys.opaque_identity (Mcore.Flow.shard pkt ~workers:4)) in
  for _ = 1 to 16 do step () done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do step () done;
  Alcotest.(check (float 0.0)) "minor words per shard" 0.0 ((Gc.minor_words () -. w0) /. 1000.0)

(* --- shared workload helpers --- *)

let chain_name = Name.of_string "/mcore/test"

let mk_env ?(v4_port = 1) ?prog_cache_capacity _w =
  let env = Env.create ?prog_cache_capacity ~name:"mcore-test" () in
  Dip_ip.Ipv4.add_route env.Env.v4_routes
    (Ipaddr.Prefix.of_string "10.0.0.0/8")
    v4_port;
  Dip_ip.Ipv6.add_route env.Env.v6_routes
    (Ipaddr.Prefix.of_string "2001:db8::/32")
    1;
  Dip_tables.Name_fib.insert env.Env.fib chain_name 1;
  for i = 0 to 31 do
    Dip_tables.Name_fib.insert env.Env.fib
      (Name.of_string (Printf.sprintf "/mcore/f%d" i))
      1
  done;
  env

(* A mixed-protocol packet from a (protocol selector, flow id) pair:
   DIP-32, DIP-128 and NDN interests, with the flow id driving the
   match field. *)
let mk_packet (proto, flow) =
  match proto mod 3 with
  | 0 -> mk_ipv4 flow
  | 1 ->
      Realize.ipv6 ~src:(v6 "2001:db8::1")
        ~dst:(v6 (Printf.sprintf "2001:db8::%x" (1 + flow)))
        ~payload:"flowtest" ()
  | _ ->
      Realize.ndn_interest
        ~name:(Name.of_string (Printf.sprintf "/mcore/f%d" (flow mod 32)))
        ~payload:"" ()

let verdict_summary = function
  | Engine.Forwarded ports ->
      "forwarded:" ^ String.concat "," (List.map string_of_int ports)
  | Engine.Delivered -> "delivered"
  | Engine.Responded b -> Printf.sprintf "responded:%d" (Bitbuf.length b)
  | Engine.Quiet -> "quiet"
  | Engine.Dropped r -> "dropped:" ^ r
  | Engine.Unsupported k -> "unsupported:" ^ Opkey.name k

let result_summary (v, (i : Engine.info)) =
  Printf.sprintf "%s run=%d skip=%d depth=%d" (verdict_summary v) i.Engine.ops_run
    i.Engine.ops_skipped i.Engine.parallel_depth

(* Obs counter snapshot with the wall-clock-dependent instruments
   (sampled nanosecond totals and span histograms) filtered out:
   everything left is a deterministic function of the workload. *)
let obs_counts m =
  List.filter_map
    (fun (name, _, v) ->
      match v with
      | Dip_obs.Metrics.Counter_v n
        when not (Filename.check_suffix name ".ns") ->
          Some (name, n)
      | _ -> None)
    (Dip_obs.Metrics.snapshot m)

(* Hit/miss/eviction totals of an env's program cache. *)
let cache_counts env =
  let c = env.Env.prog_cache in
  (Progcache.hits c, Progcache.misses c, Progcache.evictions c)

(* The cache capacities the equivalence properties run under: the
   default, and one below the workload's distinct-program count
   (IPv4, IPv6 and NDN names of two lengths), so evictions interleave
   with the cache's inline parse hint. *)
let capacities = [ None; Some 2 ]

(* --- batch ≡ sequential fold (engine level) --- *)

let prop_batch_equals_fold =
  QCheck.Test.make ~name:"engine: process_batch ≡ sequential process fold"
    ~count:60
    QCheck.(
      list_of_size (Gen.int_range 0 40)
        (pair (int_range 0 2) (int_range 0 15)))
    (fun specs ->
      let pkts = List.map mk_packet specs in
      let run_seq prog_cache_capacity =
        let env = mk_env ?prog_cache_capacity 0 in
        let m = Dip_obs.Metrics.create () in
        let obs = Obs.create m in
        let out =
          List.map
            (fun p ->
              result_summary
                (Engine.process ~obs ~registry env ~now:0.0 ~ingress:0
                   (Bitbuf.copy p)))
            pkts
        in
        Env.publish_cache_stats env;
        (out, obs_counts m, cache_counts env)
      in
      let run_batch prog_cache_capacity =
        let env = mk_env ?prog_cache_capacity 0 in
        let m = Dip_obs.Metrics.create () in
        let obs = Obs.create m in
        let out =
          Engine.process_batch ~obs ~registry env ~now:0.0 ~ingress:0
            (Array.of_list (List.map Bitbuf.copy pkts))
        in
        ( Array.to_list (Array.map result_summary out),
          obs_counts m,
          cache_counts env )
      in
      List.for_all (fun cap -> run_seq cap = run_batch cap) capacities)

(* Batches also mutate the packets identically (hop limits, marks). *)
let prop_batch_mutations_agree =
  QCheck.Test.make ~name:"engine: batch mutates packets like process"
    ~count:40
    QCheck.(
      list_of_size (Gen.int_range 1 20)
        (pair (int_range 0 2) (int_range 0 15)))
    (fun specs ->
      let pkts = List.map mk_packet specs in
      let seq = List.map Bitbuf.copy pkts in
      let batch = Array.of_list (List.map Bitbuf.copy pkts) in
      let env1 = mk_env 0 and env2 = mk_env 0 in
      List.iter
        (fun p -> ignore (Engine.process ~registry env1 ~now:0.0 ~ingress:0 p))
        seq;
      ignore (Engine.process_batch ~registry env2 ~now:0.0 ~ingress:0 batch);
      List.for_all2
        (fun a b -> Bitbuf.to_string a = Bitbuf.to_string b)
        seq (Array.to_list batch))

(* --- pool ≡ sequential fold --- *)

let pool_vs_fold ?prog_cache_capacity ~domains specs =
  let pkts = List.map mk_packet specs in
  let seq =
    let env = mk_env ?prog_cache_capacity 0 in
    List.map
      (fun p ->
        verdict_summary
          (fst (Engine.process ~registry env ~now:0.0 ~ingress:0 (Bitbuf.copy p))))
      pkts
  in
  let pool =
    Mcore.Pool.create ~domains
      (Mcore.Snapshot.v ~registry
         ~mk_env:(fun w -> mk_env ?prog_cache_capacity w)
         ())
  in
  let items =
    Array.of_list
      (List.map
         (fun p -> { Mcore.Pool.now = 0.0; ingress = 0; pkt = Bitbuf.copy p })
         pkts)
  in
  let out = Mcore.Pool.process_batch pool items in
  Mcore.Pool.shutdown pool;
  (seq, Array.to_list (Array.map verdict_summary out))

let prop_pool_equals_fold =
  QCheck.Test.make
    ~name:"pool: sharded multi-domain batch ≡ sequential fold" ~count:25
    QCheck.(
      pair (int_range 1 4)
        (list_of_size (Gen.int_range 0 30)
           (pair (int_range 0 2) (int_range 0 15))))
    (fun (domains, specs) ->
      List.for_all
        (fun prog_cache_capacity ->
          let seq, pool = pool_vs_fold ?prog_cache_capacity ~domains specs in
          seq = pool)
        capacities)

(* --- pool ≡ sequential fold on MAC-bound traffic --- *)

(* OPT, NDN+OPT data and EPIC packets rewrite their tags in place
   (OPV and PVF, HVF) with the 2EM CBC-MAC on whichever worker domain
   they land. Verdicts and every rewritten byte must match the
   sequential fold: a MAC kernel that shared a scratch buffer across
   calls would corrupt tags here. *)

let mac_secret = Dip_opt.Drkey.secret_of_string "mcore-router-key"
let mac_host = Dip_opt.Drkey.secret_of_string "mcore-host-key-0"
let mac_rogue = Dip_opt.Drkey.secret_of_string "mcore-rogue-key0"

let mk_mac_env w =
  let env = mk_env w in
  Env.set_opt_identity env ~secret:mac_secret ~hop:1;
  env

(* Each spec makes one or two packets: an OPT packet, an NDN+OPT
   interest then its data, an EPIC packet, or an EPIC packet keyed
   by the wrong secret (which the router must reject). Each comes
   paired with whether the router rewrites a tag in it. *)
let mk_mac_packets (kind, flow) =
  let session_id = Int64.of_int (100 + flow) in
  let timestamp = Int32.of_int (1 + flow) in
  let dest_key = Dip_opt.Drkey.derive mac_host ~session_id in
  let payload = Printf.sprintf "mac-bound payload %d" flow in
  let epic secret =
    Realize.epic ~hops:1 ~src_id:7l ~timestamp
      ~hop_keys:[ Dip_epic.Protocol.derive_key secret ~src:7l ~timestamp ]
      ~src:(v4 "192.0.2.1")
      ~dst:(v4 (Printf.sprintf "10.0.0.%d" (1 + flow)))
      ~payload ()
  in
  match kind with
  | 0 -> [ (Realize.opt ~hops:1 ~session_id ~timestamp ~dest_key ~payload (), true) ]
  | 1 ->
      let name = Name.of_string (Printf.sprintf "/mcore/f%d" flow) in
      [
        (Realize.ndn_opt_interest ~name ~payload:"" (), false);
        ( Realize.ndn_opt_data ~hops:1 ~session_id ~timestamp ~dest_key ~name
            ~content:payload (),
          true );
      ]
  | 2 -> [ (epic mac_secret, true) ]
  | _ -> [ (epic mac_rogue, false) ]

let prop_pool_mac_traffic =
  QCheck.Test.make
    ~name:"pool: 2-domain OPT/NDN+OPT/EPIC ≡ sequential fold, bytes included"
    ~count:20
    QCheck.(
      list_of_size (Gen.int_range 1 24) (pair (int_range 0 3) (int_range 0 15)))
    (fun specs ->
      let pkts, tagged = List.split (List.concat_map mk_mac_packets specs) in
      let seq = List.map Bitbuf.copy pkts in
      let env = mk_mac_env 0 in
      let seq_verdicts =
        List.map
          (fun p -> verdict_summary (fst (Engine.process ~registry env ~now:0.0 ~ingress:0 p)))
          seq
      in
      let pool =
        Mcore.Pool.create ~domains:2 (Mcore.Snapshot.v ~registry ~mk_env:mk_mac_env ())
      in
      let items =
        Array.of_list
          (List.map
             (fun p -> { Mcore.Pool.now = 0.0; ingress = 0; pkt = Bitbuf.copy p })
             pkts)
      in
      let out = Mcore.Pool.process_batch pool items in
      Mcore.Pool.shutdown pool;
      let pool_verdicts = Array.to_list (Array.map verdict_summary out) in
      seq_verdicts = pool_verdicts
      && List.for_all2
           (fun a it -> Bitbuf.to_string a = Bitbuf.to_string it.Mcore.Pool.pkt)
           seq (Array.to_list items)
      (* The tags were really rewritten. *)
      && List.for_all2
           (fun (p, tagged) a -> (not tagged) || Bitbuf.to_string p <> Bitbuf.to_string a)
           (List.combine pkts tagged) seq)

(* --- pool: snapshot publication --- *)

let test_pool_publish () =
  let snap0 = Mcore.Snapshot.v ~registry ~mk_env:(fun w -> mk_env w) () in
  let pool = Mcore.Pool.create ~domains:2 snap0 in
  Alcotest.(check int) "epoch 0" 0 (Mcore.Pool.epoch pool);
  let items =
    Array.init 8 (fun i ->
        { Mcore.Pool.now = 0.0; ingress = 0; pkt = mk_ipv4 i })
  in
  let ports out =
    Array.to_list
      (Array.map (function Engine.Forwarded p -> p | _ -> []) out)
  in
  Alcotest.(check (list (list int)))
    "old snapshot routes to port 1"
    (List.init 8 (fun _ -> [ 1 ]))
    (ports (Mcore.Pool.process_batch pool items));
  (* RCU-style cutover: next batch sees the new forwarding table. *)
  (match
     Mcore.Pool.publish pool
       (Mcore.Snapshot.next ~mk_env:(fun w -> mk_env ~v4_port:7 w) snap0)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("publish rejected: " ^ e));
  Alcotest.(check int) "epoch bumped" 1 (Mcore.Pool.epoch pool);
  let items2 =
    Array.init 8 (fun i ->
        { Mcore.Pool.now = 0.0; ingress = 0; pkt = mk_ipv4 i })
  in
  Alcotest.(check (list (list int)))
    "published snapshot routes to port 7"
    (List.init 8 (fun _ -> [ 7 ]))
    (ports (Mcore.Pool.process_batch pool items2));
  Mcore.Pool.shutdown pool

(* The publish-time analysis gate is not advisory: a snapshot whose
   registry fails Dip_analysis.registry_gate never reaches the epoch
   swap, and the previous configuration keeps serving. *)
let test_pool_publish_gate_rejects () =
  let good = mk_ipv4 0 in
  (* F_tel stamped over the match field: sharding-unsafe by design. *)
  let bad =
    Packet.build
      ~fns:
        [ Fn.v ~loc:0 ~len:32 Opkey.F_32_match; Fn.v ~loc:0 ~len:72 Opkey.F_tel ]
      ~locations:(String.make 9 '\000') ~payload:"" ()
  in
  let snap0 =
    Mcore.Snapshot.v
      ~check:(Dip_analysis.registry_gate ~programs:[ good ])
      ~registry
      ~mk_env:(fun w -> mk_env w)
      ()
  in
  let pool = Mcore.Pool.create ~domains:2 snap0 in
  Alcotest.(check int) "epoch 0" 0 (Mcore.Pool.epoch pool);
  (match
     Mcore.Pool.publish pool
       (Mcore.Snapshot.next
          ~check:(Dip_analysis.registry_gate ~programs:[ good; bad ])
          snap0)
   with
  | Ok () -> Alcotest.fail "sharding-unsafe snapshot published"
  | Error e ->
      let contains sub s =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "says rejected" true (contains "rejected" e));
  Alcotest.(check int) "epoch unchanged" 0 (Mcore.Pool.epoch pool);
  (* the surviving epoch still processes packets *)
  let out =
    Mcore.Pool.process_batch pool
      [| { Mcore.Pool.now = 0.0; ingress = 0; pkt = mk_ipv4 1 } |]
  in
  (match out.(0) with
  | Engine.Forwarded [ 1 ] -> ()
  | _ -> Alcotest.fail "old epoch must keep forwarding");
  Mcore.Pool.shutdown pool;
  (* and an initial snapshot failing the gate never builds a pool *)
  match
    Mcore.Pool.create ~domains:1
      (Mcore.Snapshot.v
         ~check:(Dip_analysis.registry_gate ~programs:[ bad ])
         ~registry
         ~mk_env:(fun w -> mk_env w)
         ())
  with
  | exception Invalid_argument _ -> ()
  | p ->
      Mcore.Pool.shutdown p;
      Alcotest.fail "Pool.create accepted a gated-out snapshot"

let test_pool_counters_and_metrics () =
  let pool =
    Mcore.Pool.create ~domains:3 ~metrics:true ~obs_sample_every:1
      (Mcore.Snapshot.v ~registry ~mk_env:(fun w -> mk_env w) ())
  in
  let n = 48 in
  let items =
    Array.init n (fun i -> { Mcore.Pool.now = 0.0; ingress = 0; pkt = mk_ipv4 i })
  in
  let out = Mcore.Pool.handle_batch pool items in
  Array.iter
    (function
      | [ Dip_netsim.Sim.Forward (1, _) ] -> ()
      | _ -> Alcotest.fail "every packet must be forwarded out port 1")
    out;
  (* Counters merge across the 3 worker envs: every packet either hit
     or missed each worker's program cache, and each verdict is
     counted once, in its worker's dip.* counters. *)
  let c = Mcore.Pool.counters pool in
  Alcotest.(check int) "cache hits+misses = packets" n
    (Dip_netsim.Stats.Counters.get c "progcache.hit"
    + Dip_netsim.Stats.Counters.get c "progcache.miss");
  Alcotest.(check (list (pair string int)))
    "dip.* sums the workers"
    [ ("dip.forwarded", n) ]
    (List.filter
       (fun (k, _) -> String.starts_with ~prefix:"dip." k)
       (Dip_netsim.Stats.Counters.to_list c));
  (* Metrics merge across the per-worker registries. *)
  (match Mcore.Pool.metrics pool with
  | None -> Alcotest.fail "metrics expected"
  | Some m ->
      Alcotest.(check (option (pair string int)))
        "engine.op.F_32_match.run sums the workers"
        (Some ("engine.op.F_32_match.run", n))
        (List.find_opt (fun (k, _) -> k = "engine.op.F_32_match.run") (obs_counts m)));
  Mcore.Pool.shutdown pool;
  (* Shutdown is idempotent. *)
  Mcore.Pool.shutdown pool

(* Regression (PR 7): [publish] used to drop the retiring epoch's
   per-worker envs — and their counters and metrics with them — so a
   configuration swap silently zeroed the pool's history. Totals must
   accumulate across epochs. *)
let test_pool_counters_survive_publish () =
  let snap0 = Mcore.Snapshot.v ~registry ~mk_env:(fun w -> mk_env w) () in
  let pool = Mcore.Pool.create ~domains:2 ~metrics:true snap0 in
  let batch n =
    ignore
      (Mcore.Pool.handle_batch pool
         (Array.init n (fun i ->
              { Mcore.Pool.now = 0.0; ingress = 0; pkt = mk_ipv4 i })))
  in
  let n1 = 30 and n2 = 20 in
  batch n1;
  (match
     Mcore.Pool.publish pool
       (Mcore.Snapshot.next ~mk_env:(fun w -> mk_env ~v4_port:7 w) snap0)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("publish rejected: " ^ e));
  batch n2;
  let c = Mcore.Pool.counters pool in
  Alcotest.(check int) "progcache traffic spans both epochs" (n1 + n2)
    (Dip_netsim.Stats.Counters.get c "progcache.hit"
    + Dip_netsim.Stats.Counters.get c "progcache.miss");
  Alcotest.(check int) "dip.forwarded spans both epochs" (n1 + n2)
    (Dip_netsim.Stats.Counters.get c "dip.forwarded");
  (match Mcore.Pool.metrics pool with
  | None -> Alcotest.fail "metrics expected"
  | Some m ->
      Alcotest.(check (option (pair string int)))
        "engine.op.F_32_match.run spans both epochs"
        (Some ("engine.op.F_32_match.run", n1 + n2))
        (List.find_opt (fun (k, _) -> k = "engine.op.F_32_match.run") (obs_counts m)));
  Mcore.Pool.shutdown pool

(* Regression (PR 7): workers used to read the published world at
   job-pop time, so a publish landing between dispatch and execution
   retargeted an in-flight batch — the RCU contract says a batch runs
   on the epoch it was dispatched under. The old snapshot's verify
   hook holds the batch on its first call until a helper domain has
   published the new epoch, so the rest of the batch deliberately
   executes after the swap; it must still run on the world pinned
   into its jobs. *)
let epoch_pinned_at_dispatch ~domains =
  let started = Atomic.make false and published = Atomic.make false in
  let verify _ =
    if Atomic.compare_and_set started false true then
      while not (Atomic.get published) do
        Domain.cpu_relax ()
      done;
    Ok ()
  in
  let snap0 = Mcore.Snapshot.v ~verify ~registry ~mk_env:(fun w -> mk_env w) () in
  let pool = Mcore.Pool.create ~domains snap0 in
  let items =
    Array.init 24 (fun i ->
        { Mcore.Pool.now = 0.0; ingress = 0; pkt = mk_ipv4 i })
  in
  (* Old epoch routes 10/8 to port 1, the new one to port 7. *)
  let helper =
    Domain.spawn (fun () ->
        while not (Atomic.get started) do
          Domain.cpu_relax ()
        done;
        let r =
          Mcore.Pool.publish pool
            (Mcore.Snapshot.next ~mk_env:(fun w -> mk_env ~v4_port:7 w) snap0)
        in
        Atomic.set published true;
        r)
  in
  let verdicts = Mcore.Pool.process_batch pool items in
  (match Domain.join helper with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("publish rejected: " ^ e));
  Alcotest.(check int) "epoch bumped" 1 (Mcore.Pool.epoch pool);
  Array.iter
    (function
      | Engine.Forwarded [ 1 ] -> ()
      | v ->
          Alcotest.failf "in-flight batch leaked onto the new epoch: %s"
            (verdict_summary v))
    verdicts;
  (* A batch dispatched after the swap runs on the new epoch. *)
  Array.iter
    (function
      | Engine.Forwarded [ 7 ] -> ()
      | v ->
          Alcotest.failf "post-publish batch on old epoch: %s"
            (verdict_summary v))
    (Mcore.Pool.process_batch pool items);
  Mcore.Pool.shutdown pool

(* At two domains, whether the other worker starts its job before or
   after the swap is the scheduler's choice, so that case runs several
   rounds. *)
let test_pool_epoch_pinned_at_dispatch () =
  epoch_pinned_at_dispatch ~domains:1;
  for _ = 1 to 20 do
    epoch_pinned_at_dispatch ~domains:2
  done

(* Regression: a multi-domain pool used after [shutdown] pushed its
   jobs onto the rings of exited workers and parked on the completion
   forever. Dispatch must refuse, whatever the domain count. *)
let test_pool_dispatch_after_shutdown () =
  List.iter
    (fun domains ->
      let pool =
        Mcore.Pool.create ~domains
          (Mcore.Snapshot.v ~registry ~mk_env:(fun w -> mk_env w) ())
      in
      let batch () =
        Mcore.Pool.process_batch pool
          [| { Mcore.Pool.now = 0.0; ingress = 0; pkt = mk_ipv4 0 } |]
      in
      ignore (batch ());
      Mcore.Pool.shutdown pool;
      match batch () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%d-domain pool dispatched after shutdown" domains)
    [ 1; 2 ]

(* The barrier under churn: 3 domains, more than a 2-core box has, so
   the spawned workers park between dispatches. 500 back-to-back
   dispatches mix empty batches, single packets, batches that all hash
   to one spawned worker (the dispatcher's own shard is empty) and
   mixed batches. Every dispatch must equal the sequential fold over
   one environment, verdicts and packet bytes alike; afterwards
   shutdown must return, and a second shutdown must be a no-op. *)
let test_pool_barrier_stress () =
  let domains = 3 in
  let rng = Random.State.make [| 19 |] in
  let spec () = (Random.State.int rng 3, Random.State.int rng 16) in
  let specs_of_worker =
    let all = List.concat (List.init 3 (fun p -> List.init 16 (fun f -> (p, f)))) in
    Array.init domains (fun w ->
        Array.of_list
          (List.filter
             (fun s -> Mcore.Flow.shard (mk_packet s) ~workers:domains = w)
             all))
  in
  Array.iteri
    (fun w a ->
      if Array.length a = 0 then Alcotest.failf "no test flow hashes to worker %d" w)
    specs_of_worker;
  let batch d =
    match d mod 4 with
    | 0 -> []
    | 1 -> [ spec () ]
    | 2 ->
        let own = specs_of_worker.(1 + (d / 4 mod 2)) in
        List.init
          (1 + Random.State.int rng 16)
          (fun _ -> own.(Random.State.int rng (Array.length own)))
    | _ -> List.init (Random.State.int rng 32) (fun _ -> spec ())
  in
  let env = mk_env 0 in
  let pool =
    Mcore.Pool.create ~domains
      (Mcore.Snapshot.v ~registry ~mk_env:(fun w -> mk_env w) ())
  in
  for d = 1 to 500 do
    let pkts = List.map mk_packet (batch d) in
    let seq = List.map Bitbuf.copy pkts in
    let want =
      List.map
        (fun p ->
          verdict_summary (fst (Engine.process ~registry env ~now:0.0 ~ingress:0 p)))
        seq
    in
    let items =
      Array.of_list
        (List.map (fun pkt -> { Mcore.Pool.now = 0.0; ingress = 0; pkt }) pkts)
    in
    let got = Mcore.Pool.process_batch pool items in
    Alcotest.(check (list string))
      (Printf.sprintf "dispatch %d verdicts" d)
      want
      (Array.to_list (Array.map verdict_summary got));
    Alcotest.(check (list string))
      (Printf.sprintf "dispatch %d bytes" d)
      (List.map Bitbuf.to_string seq)
      (List.map Bitbuf.to_string pkts)
  done;
  Mcore.Pool.shutdown pool;
  Mcore.Pool.shutdown pool

(* Worker 0's shard runs on the dispatching domain, so an exception
   there (here from a verify hook) leaves [process_batch]. It must not
   leave before the spawned worker is done with that dispatch: worker
   1's shard is held back 50 ms, and the next dispatch must still
   equal the sequential fold rather than meet a countdown the stale
   worker already spent. *)
let test_pool_dispatcher_raise () =
  let dispatcher = Domain.self () in
  let armed = Atomic.make true and held = Atomic.make false in
  let verify _ =
    if Domain.self () = dispatcher then (if Atomic.get armed then raise Exit)
    else if Atomic.compare_and_set held false true then Unix.sleepf 0.05;
    Ok ()
  in
  let pool =
    Mcore.Pool.create ~domains:2
      (Mcore.Snapshot.v ~verify ~registry ~mk_env:(fun w -> mk_env w) ())
  in
  let pkts () = List.init 16 (fun i -> mk_ipv4 i) in
  List.iter
    (fun w ->
      if
        not
          (List.exists
             (fun p -> Mcore.Flow.shard p ~workers:2 = w)
             (pkts ()))
      then Alcotest.failf "no test flow hashes to worker %d" w)
    [ 0; 1 ];
  let items () =
    Array.of_list
      (List.map (fun pkt -> { Mcore.Pool.now = 0.0; ingress = 0; pkt }) (pkts ()))
  in
  (match Mcore.Pool.process_batch pool (items ()) with
  | exception Exit -> ()
  | _ -> Alcotest.fail "the dispatcher's verify hook did not raise");
  Atomic.set armed false;
  let env = mk_env 0 in
  let want =
    List.map
      (fun p ->
        verdict_summary (fst (Engine.process ~registry env ~now:0.0 ~ingress:0 p)))
      (pkts ())
  in
  let got = Mcore.Pool.process_batch pool (items ()) in
  Alcotest.(check (list string))
    "next dispatch ≡ sequential fold" want
    (Array.to_list (Array.map verdict_summary got));
  Mcore.Pool.shutdown pool

(* Hand-off sanity: a 1-domain pool must stay in the same ballpark as
   the plain sequential fold (test/budgets.ml asserts the real >= 0.9x
   floor; here a generous 0.4x bound just catches the PR-5 class of
   regression without becoming a flaky timing test). *)
let test_pool_throughput_sanity () =
  let n = 4096 in
  let pkts = Array.init n (fun i -> mk_ipv4 (i mod 64)) in
  let items =
    Array.map (fun pkt -> { Mcore.Pool.now = 0.0; ingress = 0; pkt }) pkts
  in
  let env = mk_env 0 in
  let seq_pass () =
    Array.iter
      (fun pkt ->
        ignore
          (Sys.opaque_identity
             (Engine.process ~registry env ~now:0.0 ~ingress:0 pkt)))
      pkts
  in
  let pool =
    Mcore.Pool.create ~domains:1
      (Mcore.Snapshot.v ~registry ~mk_env:(fun w -> mk_env w) ())
  in
  let pool_pass () =
    ignore (Sys.opaque_identity (Mcore.Pool.process_batch pool items))
  in
  let reset () = Array.iter (fun p -> Bitbuf.set_uint8 p 2 64) pkts in
  let times = Fixtures.fastest ~prepare:reset ~n:20 [ seq_pass; pool_pass ] in
  Mcore.Pool.shutdown pool;
  match times with
  | [ seq; par ] ->
      if par > seq /. 0.4 then
        Alcotest.failf "1-domain pool at %.2fx of sequential (floor 0.4x)"
          (seq /. par)
  | _ -> assert false

(* --- simulator determinism across domain counts --- *)

let run_chain ~mode count =
  let sim = Sim.create () in
  let mk_router i _w =
    let env = mk_env 0 in
    ignore i;
    env
  in
  let sink_consumed = ref 0 in
  let sink _sim ~now:_ ~ingress:_ _ = incr sink_consumed; [ Sim.Consume ] in
  let pools, ids =
    match mode with
    | `Handler ->
        let ids =
          List.init 2 (fun i ->
              Sim.add_node sim
                ~name:(Printf.sprintf "r%d" (i + 1))
                (Engine.handler ~registry (mk_router i 0)))
        in
        ([], ids)
    | `Pool domains ->
        let pools =
          List.init 2 (fun i ->
              Mcore.Pool.create ~domains
                (Mcore.Snapshot.v ~registry ~mk_env:(mk_router i) ()))
        in
        let ids =
          List.mapi
            (fun i pool ->
              Sim.add_node sim
                ~name:(Printf.sprintf "r%d" (i + 1))
                (fun _sim ~now ~ingress pkt ->
                  (Mcore.Pool.handle_batch pool
                     [| { Mcore.Pool.now; ingress; pkt } |]).(0)))
            pools
        in
        (pools, ids)
  in
  let sink_id = Sim.add_node sim ~name:"sink" sink in
  (match ids with
  | [ a; b ] ->
      Sim.connect sim (a, 1) (b, 0);
      Sim.connect sim (b, 1) (sink_id, 0)
  | _ -> assert false);
  for k = 0 to count - 1 do
    Sim.inject sim
      ~at:(float_of_int k *. 1e-6)
      ~node:(List.hd ids) ~port:0
      (mk_packet (k mod 3, k mod 16))
  done;
  (match mode with
  | `Handler -> Sim.run sim
  | `Pool _ ->
      Mcore.Runner.run_parallel ~window:8e-6 sim
        ~pools:(List.combine ids pools));
  List.iter Mcore.Pool.shutdown pools;
  (!sink_consumed, Dip_netsim.Stats.Counters.to_list (Sim.counters sim))

let test_parallel_determinism () =
  (* The headline property: delivery counts and every per-node
     counter are a function of the workload, not of the domain
     count — and they match the plain sequential handler run. *)
  let count = 90 in
  let seq = run_chain ~mode:`Handler count in
  let one = run_chain ~mode:(`Pool 1) count in
  let four = run_chain ~mode:(`Pool 4) count in
  Alcotest.(check (pair int (list (pair string int))))
    "1-domain batched ≡ sequential handlers" seq one;
  Alcotest.(check (pair int (list (pair string int))))
    "4-domain ≡ 1-domain" one four;
  let four' = run_chain ~mode:(`Pool 4) count in
  Alcotest.(check (pair int (list (pair string int))))
    "4-domain reruns reproduce" four four'

(* --- run_batched: tail flush --- *)

let test_run_batched_tail_flush () =
  (* Regression: the final flush schedules downstream arrivals; the
     loop must keep running until they drain, or the tail of every
     run is silently lost. *)
  let sim = Sim.create () in
  let consumed = ref 0 in
  let fwd _sim ~now:_ ~ingress:_ pkt = [ Sim.Forward (1, pkt) ] in
  let sink _sim ~now:_ ~ingress:_ _ = incr consumed; [ Sim.Consume ] in
  let r1 = Sim.add_node sim ~name:"r1" fwd in
  let r2 = Sim.add_node sim ~name:"r2" fwd in
  let s = Sim.add_node sim ~name:"sink" sink in
  Sim.connect sim (r1, 1) (r2, 0);
  Sim.connect sim (r2, 1) (s, 0);
  let n = 10 in
  for k = 0 to n - 1 do
    Sim.inject sim ~at:(float_of_int k *. 1e-6) ~node:r1 ~port:0
      (Bitbuf.create 32)
  done;
  (* A window wide enough that all injections form one batch. *)
  Sim.run_batched ~window:1.0 sim
    ~batchable:(fun id -> id = r1 || id = r2)
    ~exec:(fun items ->
      Array.map (fun it -> [ Sim.Forward (1, it.Sim.b_packet) ]) items);
  Alcotest.(check int) "all packets delivered" n !consumed

let () =
  Alcotest.run "dip_mcore"
    [
      ( "flow",
        [
          Alcotest.test_case "deterministic" `Quick test_flow_deterministic;
          Alcotest.test_case "spreads" `Quick test_flow_spreads;
          Alcotest.test_case "garbage safe" `Quick test_flow_garbage_safe;
          Alcotest.test_case "match field agrees with analyzer" `Quick
            test_flow_match_field_agrees_with_analyzer;
          Alcotest.test_case "shard allocates nothing" `Quick test_flow_shard_alloc;
          QCheck_alcotest.to_alcotest prop_flow_in_place;
        ] );
      ( "batch",
        [
          QCheck_alcotest.to_alcotest prop_batch_equals_fold;
          QCheck_alcotest.to_alcotest prop_batch_mutations_agree;
        ] );
      ( "pool",
        [
          QCheck_alcotest.to_alcotest prop_pool_equals_fold;
          QCheck_alcotest.to_alcotest prop_pool_mac_traffic;
          Alcotest.test_case "publish" `Quick test_pool_publish;
          Alcotest.test_case "publish gate rejects" `Quick
            test_pool_publish_gate_rejects;
          Alcotest.test_case "counters + metrics" `Quick
            test_pool_counters_and_metrics;
          Alcotest.test_case "counters survive publish" `Quick
            test_pool_counters_survive_publish;
          Alcotest.test_case "epoch pinned at dispatch" `Quick
            test_pool_epoch_pinned_at_dispatch;
          Alcotest.test_case "dispatch after shutdown raises" `Quick
            test_pool_dispatch_after_shutdown;
          Alcotest.test_case "barrier stress at 3 domains" `Quick
            test_pool_barrier_stress;
          Alcotest.test_case "dispatcher raise waits for workers" `Quick
            test_pool_dispatcher_raise;
          Alcotest.test_case "1-domain throughput sanity" `Quick
            test_pool_throughput_sanity;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "domains don't change delivery" `Quick
            test_parallel_determinism;
          Alcotest.test_case "run_batched tail flush" `Quick
            test_run_batched_tail_flush;
        ] );
    ]

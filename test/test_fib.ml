(* The at-scale FIB engines (Dip_tables.Fib) against the binary-trie
   oracle (Dip_tables.Lpm_trie), plus the PR-10 topology and workload
   generators they are benchmarked with.

   The oracle discipline: every property drives the DIR-24-8 engine
   and the trie through the same operation sequence and compares the
   full longest-match answer (length AND value), on adversarial
   prefix sets — overlapping, adjacent, default (/0) and host (/32)
   routes — and through removals, which exercise slot re-covering and
   spill-block compaction. *)

module Fib = Dip_tables.Fib
module Trie = Dip_tables.Lpm_trie
module Ipaddr = Dip_tables.Ipaddr
module Prng = Dip_stdext.Prng
module Topology = Dip_netsim.Topology
module Workload = Dip_netsim.Workload

let mask32 len = if len <= 0 then 0l else Int32.shift_left (-1l) (32 - len)

let v4 = Ipaddr.V4.of_string
let v6 = Ipaddr.V6.of_string

(* --- hand-picked v4 cases ----------------------------------------- *)

let test_v4_basic () =
  let t = Fib.V4.create () in
  Fib.V4.insert t (v4 "10.0.0.0") ~len:8 "ten";
  Fib.V4.insert t (v4 "10.1.0.0") ~len:16 "ten-one";
  Fib.V4.insert t (v4 "0.0.0.0") ~len:0 "default";
  Alcotest.(check (option (pair int string)))
    "most specific wins"
    (Some (16, "ten-one"))
    (Fib.V4.lookup t (v4 "10.1.2.3"));
  Alcotest.(check (option (pair int string)))
    "covering /8"
    (Some (8, "ten"))
    (Fib.V4.lookup t (v4 "10.2.2.3"));
  Alcotest.(check (option (pair int string)))
    "default route"
    (Some (0, "default"))
    (Fib.V4.lookup t (v4 "192.0.2.1"));
  Alcotest.(check int) "size" 3 (Fib.V4.size t)

let test_v4_host_and_spill () =
  let t = Fib.V4.create () in
  Fib.V4.insert t (v4 "192.0.2.0") ~len:24 "net";
  Fib.V4.insert t (v4 "192.0.2.128") ~len:25 "upper";
  Fib.V4.insert t (v4 "192.0.2.200") ~len:32 "host";
  Alcotest.(check (option (pair int string)))
    "/24 below the spill split"
    (Some (24, "net"))
    (Fib.V4.lookup t (v4 "192.0.2.7"));
  Alcotest.(check (option (pair int string)))
    "/25 inside the spill block"
    (Some (25, "upper"))
    (Fib.V4.lookup t (v4 "192.0.2.129"));
  Alcotest.(check (option (pair int string)))
    "/32 host route"
    (Some (32, "host"))
    (Fib.V4.lookup t (v4 "192.0.2.200"));
  (* Withdrawing the host and the /25 must compact the spill block
     back into a plain /24 slot. *)
  Alcotest.(check bool) "remove host" true (Fib.V4.remove t (v4 "192.0.2.200") ~len:32);
  Alcotest.(check bool) "remove /25" true (Fib.V4.remove t (v4 "192.0.2.128") ~len:25);
  Alcotest.(check int) "no spill blocks left" 0 (Fib.V4.stats t).Fib.V4.spill_blocks;
  Alcotest.(check (option (pair int string)))
    "falls back to the /24"
    (Some (24, "net"))
    (Fib.V4.lookup t (v4 "192.0.2.200"))

let test_v4_withdraw_recovers () =
  let t = Fib.V4.create () in
  Fib.V4.insert t (v4 "10.0.0.0") ~len:8 "eight";
  Fib.V4.insert t (v4 "10.0.0.0") ~len:9 "nine";
  Fib.V4.insert t (v4 "10.0.0.0") ~len:16 "sixteen";
  Alcotest.(check (option (pair int string)))
    "deepest" (Some (16, "sixteen")) (Fib.V4.lookup t (v4 "10.0.0.1"));
  ignore (Fib.V4.remove t (v4 "10.0.0.0") ~len:16);
  Alcotest.(check (option (pair int string)))
    "re-covered by the /9" (Some (9, "nine")) (Fib.V4.lookup t (v4 "10.0.0.1"));
  ignore (Fib.V4.remove t (v4 "10.0.0.0") ~len:9);
  Alcotest.(check (option (pair int string)))
    "then the /8" (Some (8, "eight")) (Fib.V4.lookup t (v4 "10.0.0.1"));
  ignore (Fib.V4.remove t (v4 "10.0.0.0") ~len:8);
  Alcotest.(check (option (pair int string)))
    "then nothing" None (Fib.V4.lookup t (v4 "10.0.0.1"));
  Alcotest.(check bool) "double remove" false (Fib.V4.remove t (v4 "10.0.0.0") ~len:8)

let test_v4_replace () =
  let t = Fib.V4.create () in
  Fib.V4.insert t (v4 "10.0.0.0") ~len:8 "old";
  Fib.V4.insert t (v4 "10.0.0.0") ~len:8 "new";
  Alcotest.(check int) "replacement keeps size" 1 (Fib.V4.size t);
  Alcotest.(check (option (pair int string)))
    "replacement wins" (Some (8, "new")) (Fib.V4.lookup t (v4 "10.1.2.3"))

(* --- hand-picked v6 cases ----------------------------------------- *)

let test_v6_basic () =
  let t = Fib.V6.create () in
  Fib.V6.insert t (v6 "2001:db8::") ~len:32 "site";
  Fib.V6.insert t (v6 "2001:db8:1::") ~len:48 "subnet";
  Fib.V6.insert t (v6 "::") ~len:0 "default";
  Alcotest.(check (option (pair int string)))
    "most specific wins"
    (Some (48, "subnet"))
    (Fib.V6.lookup t (v6 "2001:db8:1::42"));
  Alcotest.(check (option (pair int string)))
    "covering /32"
    (Some (32, "site"))
    (Fib.V6.lookup t (v6 "2001:db8:2::42"));
  Alcotest.(check (option (pair int string)))
    "default"
    (Some (0, "default"))
    (Fib.V6.lookup t (v6 "2600::1"));
  ignore (Fib.V6.remove t (v6 "2001:db8:1::") ~len:48);
  Alcotest.(check (option (pair int string)))
    "withdrawal re-covers"
    (Some (32, "site"))
    (Fib.V6.lookup t (v6 "2001:db8:1::42"))

let test_v6_off_stride_lengths () =
  (* Lengths that are not multiples of 8 force controlled prefix
     expansion inside a node. *)
  let t = Fib.V6.create () in
  Fib.V6.insert t (v6 "2001::") ~len:13 "thirteen";
  Fib.V6.insert t (v6 "2001:800::") ~len:21 "twentyone";
  Fib.V6.insert t (v6 "2001:abc::") ~len:127 "neighbor";
  Alcotest.(check (option (pair int string)))
    "/13" (Some (13, "thirteen"))
    (Fib.V6.lookup t (v6 "2006::1"));
  Alcotest.(check (option (pair int string)))
    "/21 over /13" (Some (21, "twentyone"))
    (Fib.V6.lookup t (v6 "2001:8ff::1"));
  Alcotest.(check (option (pair int string)))
    "/127" (Some (127, "neighbor"))
    (Fib.V6.lookup t (v6 "2001:abc::1"))

(* --- randomized oracle properties --------------------------------- *)

(* A compact generator biased toward collisions: addresses drawn from
   four /8 blocks so prefixes overlap and nest constantly, lengths
   spanning /0 to /32 with the interesting extremes inflated. *)
let v4_entry_gen =
  QCheck.Gen.(
    let addr =
      map2
        (fun hi lo -> Int32.logor (Int32.shift_left (Int32.of_int hi) 24) (Int32.of_int lo))
        (oneofl [ 10; 10; 172; 192 ])
        (int_bound 0xFFFFFF)
    in
    let len = oneof [ int_range 0 32; oneofl [ 0; 8; 24; 25; 32; 32 ] ] in
    pair addr len)

let v4_ops_arbitrary =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map
           (fun (a, len) -> Printf.sprintf "%s/%d" (Ipaddr.V4.to_string a) len)
           l))
    QCheck.Gen.(list_size (int_range 1 60) v4_entry_gen)

let check_agree_v4 fib trie q =
  let a = Fib.V4.lookup fib q in
  let b = Trie.lookup_ipv4 trie q in
  match (a, b) with
  | None, None -> true
  | Some (l1, v1), Some (l2, v2) -> l1 = l2 && v1 = v2
  | _ -> false

let probe_points entries =
  (* Query at each inserted prefix base, one past it, and seeded
     random points — hits, near-misses, and misses. *)
  let g = Prng.create 77L in
  List.concat_map
    (fun (a, len) ->
      let base = Int32.logand a (mask32 len) in
      [ base; Int32.add base 1l; Int32.sub base 1l ])
    entries
  @ List.init 64 (fun _ -> Int32.of_int (Int64.to_int (Prng.next64 g) land 0xFFFFFFFF))

let prop_v4_oracle =
  QCheck.Test.make ~name:"fib v4: agrees with trie oracle" ~count:300
    v4_ops_arbitrary (fun entries ->
      let fib = Fib.V4.create () in
      let trie = Trie.create () in
      List.iteri
        (fun i (a, len) ->
          Fib.V4.insert fib a ~len i;
          Trie.insert trie ~bits:(Ipaddr.V4.bit a) ~len i)
        entries;
      List.for_all (check_agree_v4 fib trie) (probe_points entries))

let prop_v4_oracle_with_removals =
  QCheck.Test.make ~name:"fib v4: agrees with trie through removals" ~count:300
    v4_ops_arbitrary (fun entries ->
      let fib = Fib.V4.create () in
      let trie = Trie.create () in
      List.iteri
        (fun i (a, len) ->
          Fib.V4.insert fib a ~len i;
          Trie.insert trie ~bits:(Ipaddr.V4.bit a) ~len i)
        entries;
      (* Remove every other entry (duplicates may already be gone —
         the two sides must agree on that too). *)
      List.iteri
        (fun i (a, len) ->
          if i mod 2 = 0 then begin
            let r1 = Fib.V4.remove fib a ~len in
            let r2 = Trie.remove trie ~bits:(Ipaddr.V4.bit a) ~len in
            if r1 <> r2 then QCheck.Test.fail_report "remove results diverge"
          end)
        entries;
      List.for_all (check_agree_v4 fib trie) (probe_points entries))

let v6_entry_gen =
  QCheck.Gen.(
    let hi =
      map
        (fun x -> Int64.logor 0x2000_0000_0000_0000L (Int64.of_int x))
        (int_bound 0xFFFF)
    in
    let lo = map Int64.of_int (int_bound 0xFF) in
    let len = oneof [ int_range 0 128; oneofl [ 0; 13; 32; 48; 64; 127; 128 ] ] in
    map2 (fun hi (lo, len) -> ((hi, lo), len)) hi (pair lo len))

let v6_ops_arbitrary =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map
           (fun (a, len) -> Printf.sprintf "%s/%d" (Ipaddr.V6.to_string a) len)
           l))
    QCheck.Gen.(list_size (int_range 1 40) v6_entry_gen)

let mask6 (hi, lo) len =
  if len <= 0 then (0L, 0L)
  else if len >= 128 then (hi, lo)
  else if len <= 64 then (Int64.logand hi (Int64.shift_left (-1L) (64 - len)), 0L)
  else (hi, Int64.logand lo (Int64.shift_left (-1L) (128 - len)))

let check_agree_v6 fib trie q =
  let a = Fib.V6.lookup fib q in
  let b = Trie.lookup trie ~bits:(Ipaddr.V6.bit q) ~len:128 in
  match (a, b) with
  | None, None -> true
  | Some (l1, v1), Some (l2, v2) -> l1 = l2 && v1 = v2
  | _ -> false

let prop_v6_oracle =
  QCheck.Test.make ~name:"fib v6: agrees with trie oracle" ~count:200
    v6_ops_arbitrary (fun entries ->
      let fib = Fib.V6.create () in
      let trie = Trie.create () in
      List.iteri
        (fun i (a, len) ->
          Fib.V6.insert fib a ~len i;
          Trie.insert trie ~bits:(Ipaddr.V6.bit a) ~len i)
        entries;
      let probes =
        List.concat_map
          (fun (a, len) ->
            let (bh, bl) = mask6 a len in
            [ (bh, bl); (bh, Int64.add bl 1L); (Int64.add bh 1L, 0L) ])
          entries
      in
      List.for_all (check_agree_v6 fib trie) probes)

let prop_v6_oracle_with_removals =
  QCheck.Test.make ~name:"fib v6: agrees with trie through removals" ~count:200
    v6_ops_arbitrary (fun entries ->
      let fib = Fib.V6.create () in
      let trie = Trie.create () in
      List.iteri
        (fun i (a, len) ->
          Fib.V6.insert fib a ~len i;
          Trie.insert trie ~bits:(Ipaddr.V6.bit a) ~len i)
        entries;
      List.iteri
        (fun i (a, len) ->
          if i mod 2 = 0 then begin
            let r1 = Fib.V6.remove fib a ~len in
            let r2 = Trie.remove trie ~bits:(Ipaddr.V6.bit a) ~len in
            if r1 <> r2 then QCheck.Test.fail_report "remove results diverge"
          end)
        entries;
      let probes =
        List.concat_map
          (fun (a, len) ->
            let (bh, bl) = mask6 a len in
            [ (bh, bl); (bh, Int64.add bl 1L) ])
          entries
      in
      List.for_all (check_agree_v6 fib trie) probes)

(* --- update-under-traffic determinism ------------------------------ *)

(* The bench interleaves lookups with route churn; two identical
   seeded runs must produce identical verdict streams, and every
   verdict must match the trie driven through the same churn. *)
let test_update_under_traffic_determinism () =
  let run () =
    let prefixes = Workload.v4_prefixes ~seed:5L ~count:2_000 in
    let fib = Fib.V4.create () in
    let trie = Trie.create () in
    Array.iteri
      (fun i (a, len) ->
        Fib.V4.insert fib a ~len (i land 7);
        Trie.insert trie ~bits:(Ipaddr.V4.bit a) ~len (i land 7))
      prefixes;
    let traffic =
      Workload.v4_traffic ~seed:6L ~prefixes ~flows:500 ~packets:4_000
        ~skew:1.1
    in
    let churn = Prng.create 9L in
    let digest = Buffer.create 4_096 in
    Array.iteri
      (fun i dst ->
        (* Every 16 packets, withdraw or restore a seeded route. *)
        if i land 15 = 0 then begin
          let j = Prng.int churn (Array.length prefixes) in
          let a, len = prefixes.(j) in
          if Prng.bool churn then begin
            ignore (Fib.V4.remove fib a ~len);
            ignore (Trie.remove trie ~bits:(Ipaddr.V4.bit a) ~len)
          end
          else begin
            Fib.V4.insert fib a ~len (j land 7);
            Trie.insert trie ~bits:(Ipaddr.V4.bit a) ~len (j land 7)
          end
        end;
        let got = Fib.V4.lookup fib dst in
        if not (check_agree_v4 fib trie dst) then
          Alcotest.failf "fib/trie diverge at packet %d" i;
        Buffer.add_string digest
          (match got with
          | None -> "-"
          | Some (l, v) -> Printf.sprintf "%d:%d;" l v))
      traffic;
    Buffer.contents digest
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "two seeded runs agree" true (String.equal a b)

(* --- generators ----------------------------------------------------- *)

let test_v4_prefixes_shape () =
  let ps = Workload.v4_prefixes ~seed:1L ~count:5_000 in
  Alcotest.(check int) "count" 5_000 (Array.length ps);
  let seen = Hashtbl.create 5_000 in
  Array.iter
    (fun (a, len) ->
      if len < 0 || len > 32 then Alcotest.failf "bad length %d" len;
      if Int32.logand a (Int32.lognot (mask32 len)) <> 0l then
        Alcotest.failf "host bits set in %s/%d" (Ipaddr.V4.to_string a) len;
      if Hashtbl.mem seen (a, len) then
        Alcotest.failf "duplicate %s/%d" (Ipaddr.V4.to_string a) len;
      Hashtbl.replace seen (a, len) ())
    ps;
  let n24 =
    Array.fold_left (fun n (_, len) -> if len = 24 then n + 1 else n) 0 ps
  in
  if n24 * 10 < Array.length ps * 4 then
    Alcotest.failf "/24 share unrealistically low: %d of %d" n24
      (Array.length ps);
  (* Determinism. *)
  let ps' = Workload.v4_prefixes ~seed:1L ~count:5_000 in
  Alcotest.(check bool) "seeded rerun identical" true (ps = ps')

let test_v4_traffic_matches_table () =
  let ps = Workload.v4_prefixes ~seed:2L ~count:1_000 in
  let fib = Fib.V4.create () in
  Array.iteri (fun i (a, len) -> Fib.V4.insert fib a ~len i) ps;
  let stream = Workload.v4_traffic ~seed:3L ~prefixes:ps ~flows:200 ~packets:2_000 ~skew:1.1 in
  Alcotest.(check int) "stream length" 2_000 (Array.length stream);
  Array.iter
    (fun dst ->
      if Fib.V4.lookup_id fib dst < 0 then
        Alcotest.failf "destination %s misses the table" (Ipaddr.V4.to_string dst))
    stream

let test_fat_tree () =
  let t = Topology.fat_tree 4 in
  (* 4 cores + 4 pods x (2 agg + 2 edge + 4 hosts). *)
  Alcotest.(check int) "node count" 36 t.Topology.node_count;
  (* k^2/2 core links x2? — count edges: each pod contributes
     2x2 uplinks + 2x2 agg-edge + 4 host links. *)
  Alcotest.(check int) "edge count" (4 * (4 + 4 + 4))
    (List.length t.Topology.edges);
  (* Any host can reach any other host. *)
  let host_a = 4 + 0 * 8 + 4 (* first host of pod 0 *) in
  let host_b = 4 + 3 * 8 + 7 (* last host of pod 3 *) in
  (match Topology.path t ~src:host_a ~dst:host_b with
  | Some p ->
      (* host-edge-agg-core-agg-edge-host = 7 nodes. *)
      Alcotest.(check int) "shortest path length" 7 (List.length p)
  | None -> Alcotest.fail "fat-tree not connected");
  Alcotest.check_raises "odd k rejected"
    (Invalid_argument "Topology.fat_tree: k must be even and >= 2") (fun () ->
      ignore (Topology.fat_tree 3))

let test_wan () =
  let t = Topology.wan ~seed:4L ~sites:12 ~chords:6 in
  Alcotest.(check int) "site count" 12 t.Topology.node_count;
  Alcotest.(check int) "ring + chords" 18 (List.length t.Topology.edges);
  List.iter
    (fun e ->
      if e.Topology.latency < 0.005 || e.Topology.latency > 0.080 then
        Alcotest.failf "latency %.4f outside the WAN envelope" e.Topology.latency)
    t.Topology.edges;
  (* Connected: every site reachable from site 0. *)
  for dst = 1 to 11 do
    if Topology.path t ~src:0 ~dst = None then
      Alcotest.failf "site %d unreachable" dst
  done;
  (* Determinism. *)
  let t' = Topology.wan ~seed:4L ~sites:12 ~chords:6 in
  Alcotest.(check bool) "seeded rerun identical" true (t = t')

(* --- memory accounting --------------------------------------------- *)

let test_v4_memory_accounting () =
  let t = Fib.V4.create () in
  let empty = (Fib.V4.stats t).Fib.V4.lookup_bytes in
  (* An empty table shares its chunks: well under a million bytes,
     not the 48 MB of a materialized table. *)
  if empty > 1_000_000 then
    Alcotest.failf "empty table costs %d bytes" empty;
  let ps = Workload.v4_prefixes ~seed:8L ~count:10_000 in
  Array.iteri (fun i (a, len) -> Fib.V4.insert t a ~len (i land 3)) ps;
  let st = Fib.V4.stats t in
  Alcotest.(check int) "routes" 10_000 st.Fib.V4.routes;
  Alcotest.(check int) "next hops interned" 4 st.Fib.V4.next_hops;
  if st.Fib.V4.lookup_bytes <= empty then
    Alcotest.fail "lookup structures did not grow with routes";
  Alcotest.(check int) "memory_bytes = total"
    st.Fib.V4.total_bytes (Fib.V4.memory_bytes t)

(* --- shared chunks --------------------------------------------------- *)

(* Tables share one zero chunk, one empty-length chunk and three chunk
   arrays until their first write. Drive every write path on several
   tables at once -- whole-chunk covers (/0../10), /11../24 slot
   ranges, /25+ spills and their compaction, withdrawals that re-cover
   -- against one trie each, and count a fresh table's hits. *)
let churn_tables seed =
  let g = Prng.create seed in
  let n = 4 in
  let fibs = Array.init n (fun _ -> Fib.V4.create ()) in
  let tries = Array.init n (fun _ -> Trie.create ()) in
  (* Prefixes nest inside 10.1.2.0/24 and its covers, so covers,
     slots and spills interact. *)
  let base = v4 "10.1.2.0" in
  let lens = [| 0; 1; 4; 8; 10; 11; 16; 20; 24; 25; 26; 28; 30; 32 |] in
  let prefix () =
    let len = lens.(Prng.int g (Array.length lens)) in
    let a = Int32.logor base (Int32.of_int (Prng.int g 256)) in
    (Int32.logand a (mask32 len), len)
  in
  let probes = List.init 64 (fun _ -> Int32.logor base (Int32.of_int (Prng.int g 256))) in
  let probes = v4 "10.0.0.1" :: v4 "10.200.0.1" :: v4 "192.0.2.1" :: probes in
  for step = 0 to 3_999 do
    let i = Prng.int g n in
    let a, len = prefix () in
    if Prng.int g 3 = 0 then begin
      let r1 = Fib.V4.remove fibs.(i) a ~len in
      let r2 = Trie.remove tries.(i) ~bits:(Ipaddr.V4.bit a) ~len in
      if r1 <> r2 then Alcotest.failf "seed %Ld step %d: remove results diverge" seed step
    end
    else begin
      Fib.V4.insert fibs.(i) a ~len step;
      Trie.insert tries.(i) ~bits:(Ipaddr.V4.bit a) ~len step
    end;
    if step mod 97 = 0 then
      Array.iteri
        (fun j fib ->
          if not (List.for_all (check_agree_v4 fib tries.(j)) probes) then
            Alcotest.failf "seed %Ld step %d: table %d diverges from its trie" seed step j)
        fibs
  done;
  (* Withdraw everything: the spill blocks compact away. *)
  Array.iteri
    (fun j fib ->
      Fib.V4.fold (fun a len _ acc -> (a, len) :: acc) fib []
      |> List.iter (fun (a, len) ->
             ignore (Fib.V4.remove fib a ~len);
             ignore (Trie.remove tries.(j) ~bits:(Ipaddr.V4.bit a) ~len));
      if Fib.V4.size fib <> 0 || (Fib.V4.stats fib).Fib.V4.spill_blocks <> 0 then
        Alcotest.failf "seed %Ld: table %d not empty after withdrawing all" seed j)
    fibs;
  let fresh = Fib.V4.create () in
  List.filter (fun q -> Fib.V4.lookup_id fresh q >= 0) probes |> List.length

let check_pristine label =
  Alcotest.(check bool) (label ^ ": shared chunks and arrays untouched") true
    (Fib.V4.shared_pristine ())

let test_v4_shared_one_domain () =
  let empty = Fib.V4.create () in
  let st = Fib.V4.stats empty in
  (* Charged for its own few words, not for the 48 KB of shared
     chunks or the 24 KB of shared arrays. *)
  if st.Fib.V4.total_bytes > 1024 then
    Alcotest.failf "an empty table is charged %d bytes" st.Fib.V4.total_bytes;
  Alcotest.(check int) "fresh table sees no route" 0 (churn_tables 11L);
  Alcotest.(check int) "the empty table still sees none" (-1)
    (Fib.V4.lookup_id empty (v4 "10.1.2.3"));
  check_pristine "one domain"

let test_v4_shared_two_domains () =
  let other = Domain.spawn (fun () -> churn_tables 12L) in
  let here = churn_tables 13L in
  let there = Domain.join other in
  Alcotest.(check (pair int int)) "fresh tables see no route" (0, 0) (here, there);
  check_pristine "two domains"

let () =
  Alcotest.run "fib"
    [
      ( "v4",
        [
          Alcotest.test_case "basic lpm" `Quick test_v4_basic;
          Alcotest.test_case "host + spill routes" `Quick test_v4_host_and_spill;
          Alcotest.test_case "withdraw re-covers" `Quick test_v4_withdraw_recovers;
          Alcotest.test_case "replacement" `Quick test_v4_replace;
          Alcotest.test_case "memory accounting" `Quick test_v4_memory_accounting;
          Alcotest.test_case "shared chunks: one domain" `Quick test_v4_shared_one_domain;
          Alcotest.test_case "shared chunks: two domains" `Quick test_v4_shared_two_domains;
          QCheck_alcotest.to_alcotest prop_v4_oracle;
          QCheck_alcotest.to_alcotest prop_v4_oracle_with_removals;
        ] );
      ( "v6",
        [
          Alcotest.test_case "basic lpm" `Quick test_v6_basic;
          Alcotest.test_case "off-stride lengths" `Quick test_v6_off_stride_lengths;
          QCheck_alcotest.to_alcotest prop_v6_oracle;
          QCheck_alcotest.to_alcotest prop_v6_oracle_with_removals;
        ] );
      ( "update-under-traffic",
        [
          Alcotest.test_case "deterministic and oracle-equal" `Quick
            test_update_under_traffic_determinism;
        ] );
      ( "generators",
        [
          Alcotest.test_case "v4 prefix distribution" `Quick test_v4_prefixes_shape;
          Alcotest.test_case "traffic hits the table" `Quick
            test_v4_traffic_matches_table;
          Alcotest.test_case "fat-tree" `Quick test_fat_tree;
          Alcotest.test_case "b4-style wan" `Quick test_wan;
        ] );
    ]

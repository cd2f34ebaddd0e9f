(* Tests for the lookup substrate: IP addresses/prefixes, the LPM
   trie, content names, the name FIB, the PIT and the content store. *)

open Dip_tables

(* --- Ipaddr --- *)

let test_v4_parse () =
  let a = Ipaddr.V4.of_string "192.168.1.42" in
  Alcotest.(check string) "roundtrip" "192.168.1.42" (Ipaddr.V4.to_string a);
  Alcotest.(check int32) "value" 0xC0A8012Al a

let test_v4_parse_invalid () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (try
           ignore (Ipaddr.V4.of_string s);
           false
         with Invalid_argument _ -> true))
    [ "1.2.3"; "1.2.3.4.5"; "256.0.0.1"; "a.b.c.d"; "1..2.3"; "" ]

let test_v4_wire () =
  let a = Ipaddr.V4.of_string "10.0.0.1" in
  Alcotest.(check string) "wire" "\x0a\x00\x00\x01" (Ipaddr.V4.to_wire a);
  Alcotest.(check int32) "roundtrip" a (Ipaddr.V4.of_wire (Ipaddr.V4.to_wire a))

let test_v4_bits () =
  let a = Ipaddr.V4.of_string "128.0.0.1" in
  Alcotest.(check bool) "msb" true (Ipaddr.V4.bit a 0);
  Alcotest.(check bool) "lsb" true (Ipaddr.V4.bit a 31);
  Alcotest.(check bool) "middle" false (Ipaddr.V4.bit a 15)

let test_v6_parse_full () =
  let a = Ipaddr.V6.of_string "2001:db8:0:0:0:0:0:1" in
  Alcotest.(check string) "roundtrip" "2001:db8:0:0:0:0:0:1" (Ipaddr.V6.to_string a)

let test_v6_parse_elision () =
  let a = Ipaddr.V6.of_string "2001:db8::1" in
  let b = Ipaddr.V6.of_string "2001:db8:0:0:0:0:0:1" in
  Alcotest.(check bool) ":: expands" true (Ipaddr.V6.compare a b = 0);
  let z = Ipaddr.V6.of_string "::" in
  Alcotest.(check bool) "all zero" true (z = (0L, 0L))

let test_v6_parse_invalid () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (try
           ignore (Ipaddr.V6.of_string s);
           false
         with Invalid_argument _ -> true))
    [ "1:2:3"; "2001:db8::1::2"; "12345::"; "g::1" ]

let test_v6_wire () =
  let a = Ipaddr.V6.of_string "2001:db8::ff" in
  let w = Ipaddr.V6.to_wire a in
  Alcotest.(check int) "16 bytes" 16 (String.length w);
  Alcotest.(check bool) "roundtrip" true (Ipaddr.V6.of_wire w = a)

let test_v6_bits () =
  let a = Ipaddr.V6.of_string "8000::1" in
  Alcotest.(check bool) "msb" true (Ipaddr.V6.bit a 0);
  Alcotest.(check bool) "lsb" true (Ipaddr.V6.bit a 127);
  Alcotest.(check bool) "bit 64" false (Ipaddr.V6.bit a 64)

let test_prefix_parse_and_match () =
  let p = Ipaddr.Prefix.of_string "10.0.0.0/8" in
  Alcotest.(check string) "render" "10.0.0.0/8" (Ipaddr.Prefix.to_string p);
  let inside = Ipaddr.Prefix.V4 (Ipaddr.V4.of_string "10.1.2.3") in
  let outside = Ipaddr.Prefix.V4 (Ipaddr.V4.of_string "11.0.0.1") in
  Alcotest.(check bool) "inside" true (Ipaddr.Prefix.matches p inside);
  Alcotest.(check bool) "outside" false (Ipaddr.Prefix.matches p outside)

let test_prefix_masks_host_bits () =
  let p = Ipaddr.Prefix.of_string "10.1.2.3/8" in
  Alcotest.(check string) "host bits cleared" "10.0.0.0/8"
    (Ipaddr.Prefix.to_string p)

let test_prefix_v6_match () =
  let p = Ipaddr.Prefix.of_string "2001:db8::/32" in
  let inside = Ipaddr.Prefix.V6 (Ipaddr.V6.of_string "2001:db8:dead::beef") in
  let outside = Ipaddr.Prefix.V6 (Ipaddr.V6.of_string "2001:db9::1") in
  Alcotest.(check bool) "inside" true (Ipaddr.Prefix.matches p inside);
  Alcotest.(check bool) "outside" false (Ipaddr.Prefix.matches p outside);
  (* Cross-family never matches. *)
  Alcotest.(check bool) "cross family" false
    (Ipaddr.Prefix.matches p (Ipaddr.Prefix.V4 0l))

(* --- LPM trie --- *)

let v4_bits a i = Ipaddr.V4.bit a i

let test_lpm_basic () =
  let t = Lpm_trie.create () in
  let p8 = Ipaddr.V4.of_string "10.0.0.0" in
  let p16 = Ipaddr.V4.of_string "10.1.0.0" in
  Lpm_trie.insert t ~bits:(v4_bits p8) ~len:8 "coarse";
  Lpm_trie.insert t ~bits:(v4_bits p16) ~len:16 "fine";
  Alcotest.(check int) "size" 2 (Lpm_trie.size t);
  let q = Ipaddr.V4.of_string "10.1.2.3" in
  Alcotest.(check (option (pair int string))) "longest wins" (Some (16, "fine"))
    (Lpm_trie.lookup t ~bits:(v4_bits q) ~len:32);
  let q2 = Ipaddr.V4.of_string "10.2.0.1" in
  Alcotest.(check (option (pair int string))) "falls back" (Some (8, "coarse"))
    (Lpm_trie.lookup t ~bits:(v4_bits q2) ~len:32);
  let q3 = Ipaddr.V4.of_string "11.0.0.1" in
  Alcotest.(check (option (pair int string))) "no match" None
    (Lpm_trie.lookup t ~bits:(v4_bits q3) ~len:32)

let test_lpm_default_route () =
  let t = Lpm_trie.create () in
  Lpm_trie.insert t ~bits:(fun _ -> false) ~len:0 "default";
  let q = Ipaddr.V4.of_string "203.0.113.7" in
  Alcotest.(check (option (pair int string))) "default" (Some (0, "default"))
    (Lpm_trie.lookup t ~bits:(v4_bits q) ~len:32)

let test_lpm_replace () =
  let t = Lpm_trie.create () in
  let p = Ipaddr.V4.of_string "10.0.0.0" in
  Lpm_trie.insert t ~bits:(v4_bits p) ~len:8 1;
  Lpm_trie.insert t ~bits:(v4_bits p) ~len:8 2;
  Alcotest.(check int) "still one entry" 1 (Lpm_trie.size t);
  Alcotest.(check (option int)) "replaced" (Some 2)
    (Lpm_trie.find_exact t ~bits:(v4_bits p) ~len:8)

let test_lpm_remove () =
  let t = Lpm_trie.create () in
  let p8 = Ipaddr.V4.of_string "10.0.0.0" in
  let p16 = Ipaddr.V4.of_string "10.1.0.0" in
  Lpm_trie.insert t ~bits:(v4_bits p8) ~len:8 "a";
  Lpm_trie.insert t ~bits:(v4_bits p16) ~len:16 "b";
  Alcotest.(check bool) "removed" true (Lpm_trie.remove t ~bits:(v4_bits p16) ~len:16);
  Alcotest.(check bool) "absent now" false
    (Lpm_trie.remove t ~bits:(v4_bits p16) ~len:16);
  let q = Ipaddr.V4.of_string "10.1.2.3" in
  Alcotest.(check (option (pair int string))) "falls back after removal"
    (Some (8, "a"))
    (Lpm_trie.lookup t ~bits:(v4_bits q) ~len:32);
  (* Pruning: depth shrinks back to the 8-bit path. *)
  Alcotest.(check int) "pruned" 8 (Lpm_trie.depth t)

let test_lpm_128bit_keys () =
  let t = Lpm_trie.create () in
  let p = Ipaddr.V6.of_string "2001:db8::" in
  Lpm_trie.insert t ~bits:(Ipaddr.V6.bit p) ~len:32 "v6";
  let q = Ipaddr.V6.of_string "2001:db8::42" in
  Alcotest.(check (option (pair int string))) "v6 lookup" (Some (32, "v6"))
    (Lpm_trie.lookup t ~bits:(Ipaddr.V6.bit q) ~len:128)

let test_lpm_fold_counts () =
  let t = Lpm_trie.create () in
  let g = Dip_stdext.Prng.create 99L in
  for _ = 1 to 100 do
    let a = Int32.of_int (Dip_stdext.Prng.int g 0x3FFFFFFF) in
    let len = Dip_stdext.Prng.int_in g 1 32 in
    Lpm_trie.insert t ~bits:(Ipaddr.V4.bit a) ~len ()
  done;
  let folded = Lpm_trie.fold (fun _ _ acc -> acc + 1) t 0 in
  Alcotest.(check int) "fold visits size entries" (Lpm_trie.size t) folded

let prop_lpm_against_reference =
  (* The trie must agree with a brute-force longest-match scan. *)
  QCheck.Test.make ~name:"lpm: agrees with linear scan" ~count:100
    QCheck.(small_list (pair int32 (int_range 0 32)))
    (fun entries ->
      let t = Lpm_trie.create () in
      let norm =
        List.map
          (fun (a, len) ->
            let masked =
              if len = 0 then 0l
              else Int32.logand a (Int32.shift_left (-1l) (32 - len))
            in
            (masked, len))
          entries
      in
      List.iter
        (fun (a, len) -> Lpm_trie.insert t ~bits:(Ipaddr.V4.bit a) ~len (a, len))
        norm;
      let g = Dip_stdext.Prng.create 5L in
      List.for_all
        (fun _ ->
          let q = Int32.of_int (Dip_stdext.Prng.int g 0x3FFFFFFF) in
          let reference =
            List.fold_left
              (fun best (a, len) ->
                let m =
                  if len = 0 then true
                  else
                    Int32.logand q (Int32.shift_left (-1l) (32 - len)) = a
                in
                match (m, best) with
                | false, _ -> best
                | true, Some (_, bl) when bl >= len -> best
                | true, _ -> Some (a, len))
              None norm
          in
          let got = Lpm_trie.lookup t ~bits:(Ipaddr.V4.bit q) ~len:32 in
          match (reference, got) with
          | None, None -> true
          | Some (_, len), Some (gl, _) -> len = gl
          | _ -> false)
        (List.init 20 Fun.id))

(* --- Name --- *)

let test_name_parse () =
  let n = Name.of_string "/video/intro.mp4/seg3" in
  Alcotest.(check (list string)) "components"
    [ "video"; "intro.mp4"; "seg3" ] (Name.components n);
  Alcotest.(check string) "canonical" "/video/intro.mp4/seg3" (Name.to_string n);
  Alcotest.(check string) "no leading slash ok" "/a/b"
    (Name.to_string (Name.of_string "a/b"))

let test_name_invalid () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (try
           ignore (Name.of_string s);
           false
         with Invalid_argument _ -> true))
    [ ""; "/"; "/a//b" ]

(* The prefix relation the name FIB's longest match uses is
   component-wise: [/a/b] covers [/a/b/c] and itself but not [/a/bc],
   and [/a/b/c] does not cover [/a/b]. *)
let test_name_prefix_relation () =
  let covers prefix name =
    let fib = Name_fib.create () in
    Name_fib.insert fib (Name.of_string prefix) ();
    Name_fib.lookup fib (Name.of_string name) <> None
  in
  Alcotest.(check bool) "prefix" true (covers "/a/b" "/a/b/c");
  Alcotest.(check bool) "self" true (covers "/a/b" "/a/b");
  Alcotest.(check bool) "component-wise, not string-wise" false
    (covers "/a/b" "/a/bc");
  Alcotest.(check bool) "not reversed" false (covers "/a/b/c" "/a/b")

let test_name_wire_roundtrip () =
  let n = Name.of_string "/hotnets.org/papers/dip" in
  Alcotest.(check bool) "roundtrip" true (Name.equal n (Name.of_wire (Name.to_wire n)))

let test_name_wire_rejects_garbage () =
  Alcotest.(check bool) "truncated" true
    (try
       ignore (Name.of_wire "\x02\x00\x01a");
       false
     with Invalid_argument _ -> true)

let test_name_hash_stable () =
  let a = Name.of_string "/hotnets.org" in
  Alcotest.(check int32) "stable" (Name.hash32 a)
    (Name.hash32 (Name.of_string "/hotnets.org"))

let prop_name_wire_roundtrip =
  QCheck.Test.make ~name:"name: wire roundtrip" ~count:300
    QCheck.(small_list (string_gen_of_size (QCheck.Gen.int_range 1 8)
                          (QCheck.Gen.char_range 'a' 'z')))
    (fun cs ->
      QCheck.assume (cs <> [] && List.length cs < 256);
      let n = Name.of_components cs in
      Name.equal n (Name.of_wire (Name.to_wire n)))

(* --- Name FIB --- *)

let test_fib_lpm () =
  let fib = Name_fib.create () in
  Name_fib.insert fib (Name.of_string "/video") 1;
  Name_fib.insert fib (Name.of_string "/video/intro.mp4") 2;
  let q = Name.of_string "/video/intro.mp4/seg1" in
  (match Name_fib.lookup fib q with
  | Some (p, v) ->
      Alcotest.(check string) "longest prefix" "/video/intro.mp4" (Name.to_string p);
      Alcotest.(check int) "port" 2 v
  | None -> Alcotest.fail "expected a match");
  (match Name_fib.lookup fib (Name.of_string "/video/other") with
  | Some (p, v) ->
      Alcotest.(check string) "falls back" "/video" (Name.to_string p);
      Alcotest.(check int) "port" 1 v
  | None -> Alcotest.fail "expected fallback");
  Alcotest.(check bool) "miss" true
    (Name_fib.lookup fib (Name.of_string "/audio/x") = None)

let test_fib_hash_path () =
  let fib = Name_fib.create () in
  let n = Name.of_string "/hotnets.org" in
  Name_fib.insert fib n 7;
  Alcotest.(check (option int)) "hash hit" (Some 7)
    (Name_fib.lookup_hash fib (Name.hash32 n));
  Alcotest.(check (option int)) "hash miss" None
    (Name_fib.lookup_hash fib (Name.hash32 (Name.of_string "/other")))

let test_fib_remove () =
  let fib = Name_fib.create () in
  let n = Name.of_string "/a/b" in
  Name_fib.insert fib n 1;
  Alcotest.(check bool) "removed" true (Name_fib.remove fib n);
  Alcotest.(check bool) "gone" true (Name_fib.lookup fib n = None);
  Alcotest.(check (option int)) "hash gone" None
    (Name_fib.lookup_hash fib (Name.hash32 n));
  Alcotest.(check bool) "second remove false" false (Name_fib.remove fib n)

let test_fib_replace_and_size () =
  let fib = Name_fib.create () in
  Name_fib.insert fib (Name.of_string "/a") 1;
  Name_fib.insert fib (Name.of_string "/a") 2;
  Alcotest.(check int) "size" 1 (Name_fib.size fib);
  match Name_fib.lookup fib (Name.of_string "/a") with
  | Some (_, v) -> Alcotest.(check int) "replaced" 2 v
  | None -> Alcotest.fail "expected match"

(* --- PIT --- *)

let test_pit_forward_then_aggregate () =
  let pit = Pit.create () in
  let key = Name.hash32 (Name.of_string "/f") in
  Alcotest.(check bool) "first is Forwarded" true
    (Pit.insert pit ~key ~port:1 ~now:0.0 ~lifetime:4.0 = Pit.Forwarded);
  Alcotest.(check bool) "second port aggregates" true
    (Pit.insert pit ~key ~port:2 ~now:1.0 ~lifetime:4.0 = Pit.Aggregated);
  Alcotest.(check bool) "same port aggregates" true
    (Pit.insert pit ~key ~port:1 ~now:1.0 ~lifetime:4.0 = Pit.Aggregated);
  Alcotest.(check (list int)) "both ports recorded" [ 1; 2 ]
    (List.sort compare (Pit.consume pit ~key ~now:2.0));
  Alcotest.(check (list int)) "consumed" [] (Pit.consume pit ~key ~now:2.0)

let test_pit_expiry () =
  let pit = Pit.create () in
  let key = 42l in
  ignore (Pit.insert pit ~key ~port:3 ~now:0.0 ~lifetime:1.0);
  Alcotest.(check (list int)) "live before expiry" [ 3 ]
    (Pit.pending pit ~key ~now:0.5);
  Alcotest.(check (list int)) "expired" [] (Pit.consume pit ~key ~now:2.0)

let test_pit_capacity () =
  let pit = Pit.create ~capacity:2 () in
  ignore (Pit.insert pit ~key:1l ~port:0 ~now:0.0 ~lifetime:10.0);
  ignore (Pit.insert pit ~key:2l ~port:0 ~now:0.0 ~lifetime:10.0);
  Alcotest.(check bool) "full table rejects" true
    (Pit.insert pit ~key:3l ~port:0 ~now:0.0 ~lifetime:10.0 = Pit.Rejected);
  Alcotest.(check int) "size bounded" 2 (Pit.size pit);
  (* Unanswered interests that expired must not hold capacity: the
     full table reclaims them instead of rejecting forever. *)
  let pit = Pit.create ~capacity:2 () in
  ignore (Pit.insert pit ~key:1l ~port:0 ~now:0.0 ~lifetime:1.0);
  ignore (Pit.insert pit ~key:2l ~port:0 ~now:0.0 ~lifetime:1.0);
  Alcotest.(check bool) "expired entries reclaimed" true
    (Pit.insert pit ~key:3l ~port:0 ~now:100.0 ~lifetime:1.0 = Pit.Forwarded);
  Alcotest.(check int) "only the new entry" 1 (Pit.size pit)

let test_pit_purge () =
  let pit = Pit.create () in
  ignore (Pit.insert pit ~key:1l ~port:0 ~now:0.0 ~lifetime:1.0);
  ignore (Pit.insert pit ~key:2l ~port:0 ~now:0.0 ~lifetime:5.0);
  Alcotest.(check int) "one purged" 1 (Pit.purge_expired pit ~now:2.0);
  Alcotest.(check int) "one left" 1 (Pit.size pit)

let test_pit_expired_slot_reusable () =
  let pit = Pit.create ~capacity:1 () in
  ignore (Pit.insert pit ~key:1l ~port:0 ~now:0.0 ~lifetime:1.0);
  Alcotest.(check bool) "expired entry frees its slot" true
    (Pit.insert pit ~key:1l ~port:5 ~now:2.0 ~lifetime:1.0 = Pit.Forwarded);
  Alcotest.(check (list int)) "new ports only" [ 5 ] (Pit.pending pit ~key:1l ~now:2.5)

(* The PIT against test/pit_ref.ml, the Hashtbl table it replaced:
   random inserts, consumes, pendings and purges over a few keys (the
   int32 extremes among them) with a small capacity and lifetimes that
   expire between steps, so entries aggregate, expire, are reclaimed
   by a full table or rejected. Every outcome, port list (in order),
   purge count and size must agree. *)
type pit_op =
  | Insert of int * int * float
  | Consume of int
  | Pending of int
  | Purge

let pit_keys = [| 0l; 1l; -1l; 0x7FFF_FFFFl; Int32.min_int; 42l |]

let pit_op_gen =
  QCheck.Gen.(
    let key = int_bound (Array.length pit_keys - 1) in
    frequency
      [
        (5, map3 (fun k p l -> Insert (k, p, l)) key (int_bound 3) (oneofl [ 0.5; 1.0; 3.0 ]));
        (2, map (fun k -> Consume k) key);
        (1, map (fun k -> Pending k) key);
        (1, return Purge);
      ])

let prop_pit_model =
  QCheck.Test.make ~name:"pit: slot table = Hashtbl model" ~count:500
    QCheck.(
      make
        Gen.(
          pair (int_range 1 4)
            (list_size (int_range 0 60) (pair pit_op_gen (float_bound_inclusive 1.0)))))
    (fun (capacity, ops) ->
      let pit = Pit.create ~capacity () and model = Pit_ref.create ~capacity () in
      let now = ref 0.0 and rejected = ref 0 and rejects = ref 0 in
      Pit.set_observer pit (function Pit.Reject -> incr rejects | Pit.Expire -> ());
      List.for_all
        (fun (op, dt) ->
          now := !now +. dt;
          let now = !now in
          let same =
            match op with
            | Insert (k, port, lifetime) -> (
                let key = pit_keys.(k) in
                match
                  ( Pit.insert pit ~key ~port ~now ~lifetime,
                    Pit_ref.insert model ~key ~port ~now ~lifetime )
                with
                | Pit.Forwarded, Pit_ref.Forwarded | Pit.Aggregated, Pit_ref.Aggregated -> true
                | Pit.Rejected, Pit_ref.Rejected ->
                    incr rejected;
                    true
                | _ -> false)
            | Consume k ->
                (* Through the int API, by the unsigned key. *)
                let key = pit_keys.(k) in
                Pit.consume_int pit ~key:(Int32.to_int key land 0xFFFF_FFFF) ~now
                = Pit_ref.consume model ~key ~now
            | Pending k ->
                let key = pit_keys.(k) in
                Pit.pending pit ~key ~now = Pit_ref.pending model ~key ~now
            | Purge -> Pit.purge_expired pit ~now = Pit_ref.purge_expired model ~now
          in
          same && Pit.size pit = Pit_ref.size model && !rejects = !rejected)
        ops)

(* The slot table against an association list in recency order:
   random adds (keys may repeat), removals and touches of live slots,
   and probes. [find] and [next] must reach exactly the live slots
   holding a key and [iter] every live slot, and an ordered table's
   [iter] and [lru] must follow the model's recency order. *)
let prop_slots_model =
  QCheck.Test.make ~name:"slots: table = association-list model" ~count:300
    QCheck.(pair bool (list_of_size (Gen.int_range 0 120) (pair (int_range 0 3) (int_range 0 7))))
    (fun (ordered, ops) ->
      let module S = Dip_tables.Slots in
      let t = S.create ~ordered and live = ref [] in
      let rec chain s = if s < 0 then [] else s :: chain (S.next t s) in
      let nth k = List.nth_opt !live (k mod max 1 (List.length !live)) in
      List.for_all
        (fun (op, k) ->
          (match (op, nth k) with
          | (0 | 1), _ -> live := (S.add t k, k) :: !live
          | 2, Some (s, _) ->
              S.remove t s;
              live := List.remove_assoc s !live
          | _, Some (s, k) ->
              S.touch t s;
              live := (s, k) :: List.remove_assoc s !live
          | _, None -> ());
          let order = ref [] in
          S.iter (fun s -> order := s :: !order) t;
          S.count t = List.length !live
          && (if ordered then List.rev !order = List.map fst !live
              else List.sort compare !order = List.sort compare (List.map fst !live))
          && S.lru t = (match List.rev !live with (s, _) :: _ when ordered -> s | _ -> -1)
          && List.for_all
               (fun k ->
                 List.sort compare (chain (S.find t k))
                 = List.sort compare
                     (List.filter_map (fun (s, k') -> if k = k' then Some s else None) !live))
               [ 0; 1; 2; 3; 4; 5; 6; 7 ])
        ops)

(* --- generic LRU --- *)

let test_lru_basic () =
  let l = Lru.create ~capacity:2 () in
  Lru.insert l 1 "a";
  Lru.insert l 2 "b";
  Alcotest.(check (option string)) "hit" (Some "a") (Lru.find l 1);
  Alcotest.(check int) "size" 2 (Lru.size l);
  Alcotest.(check int) "capacity" 2 (Lru.capacity l)

let test_lru_eviction_order () =
  let l = Lru.create ~capacity:2 () in
  Lru.insert l 1 "a";
  Lru.insert l 2 "b";
  ignore (Lru.find l 1) (* 2 becomes LRU *);
  Lru.insert l 3 "c";
  Alcotest.(check bool) "2 evicted" false (Lru.mem l 2);
  Alcotest.(check bool) "1 kept" true (Lru.mem l 1);
  Alcotest.(check bool) "3 present" true (Lru.mem l 3)

let test_lru_update_refreshes () =
  let l = Lru.create ~capacity:2 () in
  Lru.insert l 1 "a";
  Lru.insert l 2 "b";
  Lru.insert l 1 "a2" (* refresh: 2 is now LRU *);
  Lru.insert l 3 "c";
  Alcotest.(check (option string)) "updated survives" (Some "a2") (Lru.find l 1);
  Alcotest.(check bool) "2 evicted" false (Lru.mem l 2)

let test_lru_remove_clear_fold () =
  let l = Lru.create ~capacity:4 () in
  Lru.insert l 1 "a";
  Lru.insert l 2 "b";
  Alcotest.(check bool) "remove" true (Lru.remove l 1);
  Alcotest.(check bool) "remove again" false (Lru.remove l 1);
  Alcotest.(check (list int)) "fold most-recent first" [ 2 ]
    (Lru.fold (fun k _ acc -> k :: acc) l [] |> List.rev);
  Lru.clear l;
  Alcotest.(check int) "cleared" 0 (Lru.size l)

let test_lru_custom_equality () =
  (* Case-insensitive string keys via custom hash/equal. *)
  let norm s = String.lowercase_ascii s in
  let l =
    Lru.create
      ~hash:(fun s -> Hashtbl.hash (norm s))
      ~equal:(fun a b -> norm a = norm b)
      ~capacity:2 ()
  in
  Lru.insert l "Key" 1;
  Alcotest.(check (option int)) "case-insensitive hit" (Some 1) (Lru.find l "kEY");
  Lru.insert l "KEY" 2;
  Alcotest.(check int) "same entry" 1 (Lru.size l)

let prop_lru_never_exceeds_capacity =
  QCheck.Test.make ~name:"lru: size <= capacity" ~count:200
    QCheck.(pair (int_range 1 8) (small_list (int_range 0 20)))
    (fun (cap, keys) ->
      let l = Lru.create ~capacity:cap () in
      List.iter (fun k -> Lru.insert l k k) keys;
      Lru.size l <= cap)

let prop_lru_most_recent_survives =
  QCheck.Test.make ~name:"lru: most recent insert always present" ~count:200
    QCheck.(pair (int_range 1 4) (small_list (int_range 0 20)))
    (fun (cap, keys) ->
      QCheck.assume (keys <> []);
      let l = Lru.create ~capacity:cap () in
      List.iter (fun k -> Lru.insert l k k) keys;
      Lru.mem l (List.nth keys (List.length keys - 1)))

(* --- custody store --- *)

let cust ?(capacity = 4) ?(max_bytes = 100) () =
  Custody_store.create ~capacity ~max_bytes ~size:String.length ()

(* The store counts nothing itself; tally its transitions the way
   Dip_core.Custody does, through the observer. *)
let tally s =
  let n = Hashtbl.create 4 in
  Custody_store.set_observer s (fun ev ->
      Hashtbl.replace n ev (1 + Option.value ~default:0 (Hashtbl.find_opt n ev)));
  fun ev -> Option.value ~default:0 (Hashtbl.find_opt n ev)

let test_cust_basic () =
  let s = cust () in
  let count = tally s in
  Alcotest.(check bool) "stored" true (Custody_store.take s 1 "aaaa" = `Stored);
  Alcotest.(check bool) "stored" true (Custody_store.take s 2 "bb" = `Stored);
  Alcotest.(check int) "size" 2 (Custody_store.size s);
  Alcotest.(check int) "bytes" 6 (Custody_store.bytes s);
  Alcotest.(check (option string)) "find" (Some "aaaa") (Custody_store.find s 1);
  Alcotest.(check bool) "release" true (Custody_store.release s 1);
  Alcotest.(check bool) "release again" false (Custody_store.release s 1);
  Alcotest.(check int) "bytes refunded" 2 (Custody_store.bytes s);
  Alcotest.(check int) "takes" 2 (count Custody_store.Take);
  Alcotest.(check int) "releases" 1 (count Custody_store.Release)

let test_cust_capacity_evicts_lru () =
  let s = cust ~capacity:2 () in
  let count = tally s in
  ignore (Custody_store.take s 1 "a");
  ignore (Custody_store.take s 2 "b");
  ignore (Custody_store.find s 1) (* 2 becomes LRU *);
  Alcotest.(check bool) "stored" true (Custody_store.take s 3 "c" = `Stored);
  Alcotest.(check bool) "LRU evicted" false (Custody_store.mem s 2);
  Alcotest.(check bool) "MRU kept" true (Custody_store.mem s 1);
  Alcotest.(check int) "one eviction" 1 (count Custody_store.Evict)

let test_cust_byte_bound_evicts () =
  let s = cust ~capacity:10 ~max_bytes:10 () in
  ignore (Custody_store.take s 1 "aaaa");
  ignore (Custody_store.take s 2 "bbbb");
  (* 8 bytes held; a 4-byte bundle must push out the LRU (key 1). *)
  Alcotest.(check bool) "stored" true (Custody_store.take s 3 "cccc" = `Stored);
  Alcotest.(check bool) "1 evicted for space" false (Custody_store.mem s 1);
  Alcotest.(check int) "bytes bounded" 8 (Custody_store.bytes s);
  Alcotest.(check int) "high water bytes" 8 (Custody_store.high_water_bytes s)

let test_cust_oversized_rejected () =
  let s = cust ~max_bytes:4 () in
  let count = tally s in
  ignore (Custody_store.take s 1 "ab");
  Alcotest.(check bool) "rejected" true
    (Custody_store.take s 2 "too-big" = `Rejected);
  Alcotest.(check bool) "existing untouched" true (Custody_store.mem s 1);
  Alcotest.(check int) "reject counted" 1 (count Custody_store.Reject)

let test_cust_retake_replaces () =
  let s = cust () in
  ignore (Custody_store.take s 1 "aaaa");
  Alcotest.(check bool) "replace" true (Custody_store.take s 1 "bb" = `Stored);
  Alcotest.(check int) "one entry" 1 (Custody_store.size s);
  Alcotest.(check int) "bytes re-measured" 2 (Custody_store.bytes s);
  Alcotest.(check (option string)) "new value" (Some "bb")
    (Custody_store.find s 1)

let test_cust_observer_sees_transitions () =
  let s = cust ~capacity:1 ~max_bytes:4 () in
  let seen = ref [] in
  Custody_store.set_observer s (fun ev -> seen := ev :: !seen);
  ignore (Custody_store.take s 1 "a");
  ignore (Custody_store.take s 2 "b") (* evicts 1, then stores *);
  ignore (Custody_store.release s 2);
  ignore (Custody_store.take s 3 "too-big");
  Alcotest.(check bool) "take/evict/release/reject all observed" true
    (List.rev !seen
    = Custody_store.[ Take; Evict; Take; Release; Reject ])

(* The tentpole safety property: no interleaving of operations may
   ever break either bound — a custodian that over-commits memory
   loses bundles it promised to keep. *)
let prop_cust_bounds_hold =
  QCheck.Test.make ~name:"custody store: bounds hold under interleavings"
    ~count:300
    QCheck.(
      triple (int_range 1 6) (int_range 1 32)
        (small_list
           (pair (int_range 0 3) (pair (int_range 0 9) (int_range 0 12)))))
    (fun (cap, max_bytes, ops) ->
      let s =
        Custody_store.create ~capacity:cap ~max_bytes ~size:String.length ()
      in
      List.for_all
        (fun (op, (key, len)) ->
          (match op with
          | 0 | 1 -> ignore (Custody_store.take s key (String.make len 'x'))
          | 2 -> ignore (Custody_store.release s key)
          | _ -> ignore (Custody_store.evict_lru s));
          Custody_store.size s <= cap
          && Custody_store.bytes s <= max_bytes
          && Custody_store.high_water s <= cap
          && Custody_store.high_water_bytes s <= max_bytes)
        ops)

(* Conservation: everything admitted is either still held or counted
   out exactly once (released or evicted). *)
let prop_cust_conservation =
  QCheck.Test.make ~name:"custody store: takes = held + releases + evicts"
    ~count:300
    QCheck.(
      pair (int_range 1 4)
        (small_list (pair (int_range 0 2) (int_range 0 9))))
    (fun (cap, ops) ->
      let s =
        Custody_store.create ~capacity:cap ~max_bytes:1000
          ~size:String.length ()
      in
      let count = tally s in
      let stored = ref 0 in
      List.iter
        (fun (op, key) ->
          match op with
          | 0 | 1 ->
              (* Re-takes replace in place: count only fresh admissions
                 so the ledger matches held entries. *)
              if not (Custody_store.mem s key) then
                if Custody_store.take s key "pkt" = `Stored then incr stored
                else ()
              else ignore (Custody_store.take s key "pkt")
          | _ -> ignore (Custody_store.release s key))
        ops;
      !stored
      = Custody_store.size s + count Custody_store.Release
        + count Custody_store.Evict)

let () =
  Alcotest.run "tables"
    [
      ( "ipaddr",
        [
          Alcotest.test_case "v4 parse" `Quick test_v4_parse;
          Alcotest.test_case "v4 invalid" `Quick test_v4_parse_invalid;
          Alcotest.test_case "v4 wire" `Quick test_v4_wire;
          Alcotest.test_case "v4 bits" `Quick test_v4_bits;
          Alcotest.test_case "v6 parse full" `Quick test_v6_parse_full;
          Alcotest.test_case "v6 elision" `Quick test_v6_parse_elision;
          Alcotest.test_case "v6 invalid" `Quick test_v6_parse_invalid;
          Alcotest.test_case "v6 wire" `Quick test_v6_wire;
          Alcotest.test_case "v6 bits" `Quick test_v6_bits;
          Alcotest.test_case "prefix parse/match" `Quick test_prefix_parse_and_match;
          Alcotest.test_case "prefix masks host bits" `Quick test_prefix_masks_host_bits;
          Alcotest.test_case "prefix v6 match" `Quick test_prefix_v6_match;
        ] );
      ( "lpm",
        [
          Alcotest.test_case "basic" `Quick test_lpm_basic;
          Alcotest.test_case "default route" `Quick test_lpm_default_route;
          Alcotest.test_case "replace" `Quick test_lpm_replace;
          Alcotest.test_case "remove + prune" `Quick test_lpm_remove;
          Alcotest.test_case "128-bit keys" `Quick test_lpm_128bit_keys;
          Alcotest.test_case "fold" `Quick test_lpm_fold_counts;
          QCheck_alcotest.to_alcotest prop_lpm_against_reference;
        ] );
      ( "name",
        [
          Alcotest.test_case "parse" `Quick test_name_parse;
          Alcotest.test_case "invalid" `Quick test_name_invalid;
          Alcotest.test_case "prefix relation" `Quick test_name_prefix_relation;
          Alcotest.test_case "wire roundtrip" `Quick test_name_wire_roundtrip;
          Alcotest.test_case "wire rejects garbage" `Quick test_name_wire_rejects_garbage;
          Alcotest.test_case "hash stable" `Quick test_name_hash_stable;
          QCheck_alcotest.to_alcotest prop_name_wire_roundtrip;
        ] );
      ( "fib",
        [
          Alcotest.test_case "longest prefix" `Quick test_fib_lpm;
          Alcotest.test_case "hash path" `Quick test_fib_hash_path;
          Alcotest.test_case "remove" `Quick test_fib_remove;
          Alcotest.test_case "replace/size" `Quick test_fib_replace_and_size;
        ] );
      ( "pit",
        [
          Alcotest.test_case "forward then aggregate" `Quick test_pit_forward_then_aggregate;
          Alcotest.test_case "expiry" `Quick test_pit_expiry;
          Alcotest.test_case "capacity" `Quick test_pit_capacity;
          Alcotest.test_case "purge" `Quick test_pit_purge;
          Alcotest.test_case "expired slot reusable" `Quick test_pit_expired_slot_reusable;
        ] );
      ( "pit-model",
        [
          QCheck_alcotest.to_alcotest prop_pit_model;
          QCheck_alcotest.to_alcotest prop_slots_model;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basic" `Quick test_lru_basic;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "update refreshes" `Quick test_lru_update_refreshes;
          Alcotest.test_case "remove/clear/fold" `Quick test_lru_remove_clear_fold;
          Alcotest.test_case "custom equality" `Quick test_lru_custom_equality;
          QCheck_alcotest.to_alcotest prop_lru_never_exceeds_capacity;
          QCheck_alcotest.to_alcotest prop_lru_most_recent_survives;
        ] );
      ( "custody-store",
        [
          Alcotest.test_case "basic" `Quick test_cust_basic;
          Alcotest.test_case "capacity evicts lru" `Quick
            test_cust_capacity_evicts_lru;
          Alcotest.test_case "byte bound evicts" `Quick
            test_cust_byte_bound_evicts;
          Alcotest.test_case "oversized rejected" `Quick
            test_cust_oversized_rejected;
          Alcotest.test_case "re-take replaces" `Quick test_cust_retake_replaces;
          Alcotest.test_case "observer transitions" `Quick
            test_cust_observer_sees_transitions;
          QCheck_alcotest.to_alcotest prop_cust_bounds_hold;
          QCheck_alcotest.to_alcotest prop_cust_conservation;
        ] );
    ]

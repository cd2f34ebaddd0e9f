(* Unit and property tests for the dip_stdext utility kit. *)

open Dip_stdext

let test_prng_determinism () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next64 a) (Prng.next64 b)
  done

let test_prng_split_independent () =
  let a = Prng.create 42L in
  let c = Prng.split a in
  let x = Prng.next64 a and y = Prng.next64 c in
  Alcotest.(check bool) "split streams differ" true (x <> y)

let test_prng_copy () =
  let a = Prng.create 7L in
  let _ = Prng.next64 a in
  let b = Prng.copy a in
  Alcotest.(check int64) "copy preserves state" (Prng.next64 a) (Prng.next64 b)

let test_prng_int_bounds () =
  let g = Prng.create 1L in
  for _ = 1 to 1000 do
    let v = Prng.int g 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_in () =
  let g = Prng.create 2L in
  for _ = 1 to 1000 do
    let v = Prng.int_in g (-5) 5 in
    Alcotest.(check bool) "in closed range" true (v >= -5 && v <= 5)
  done

let test_prng_int_invalid () =
  let g = Prng.create 3L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_prng_float_bounds () =
  let g = Prng.create 4L in
  for _ = 1 to 1000 do
    let v = Prng.float g 3.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 3.5)
  done

let test_prng_bytes_len () =
  let g = Prng.create 5L in
  Alcotest.(check int) "length" 33 (Bytes.length (Prng.bytes g 33))

let test_prng_shuffle_permutation () =
  let g = Prng.create 6L in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_prng_zipf_range () =
  let g = Prng.create 8L in
  for _ = 1 to 1000 do
    let v = Prng.zipf g ~n:100 ~s:0.9 in
    Alcotest.(check bool) "rank in [1,n]" true (v >= 1 && v <= 100)
  done

let test_prng_zipf_skew () =
  (* Rank 1 must be sampled far more often than rank 100. *)
  let g = Prng.create 9L in
  let counts = Array.make 101 0 in
  for _ = 1 to 20_000 do
    let v = Prng.zipf g ~n:100 ~s:1.0 in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "head heavier than tail" true (counts.(1) > 10 * counts.(100))

let test_prng_exponential_positive () =
  let g = Prng.create 10L in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "positive" true (Prng.exponential g 2.0 >= 0.0)
  done

let test_hex_roundtrip () =
  let s = "\x00\x01\xfe\xff DIP" in
  Alcotest.(check string) "roundtrip" s (Hex.decode (Hex.encode s))

let test_hex_encode_known () =
  Alcotest.(check string) "known vector" "deadbeef"
    (Hex.encode "\xde\xad\xbe\xef")

let test_hex_decode_upper () =
  Alcotest.(check string) "uppercase accepted" "\xde\xad" (Hex.decode "DEAD")

let test_hex_decode_invalid () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd length")
    (fun () -> ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad char"
    (Invalid_argument "Hex.decode: non-hex character") (fun () ->
      ignore (Hex.decode "zz"))

let test_crc32_known_vectors () =
  (* Standard IEEE CRC-32 check value. *)
  Alcotest.(check int32) "check value" 0xCBF43926l (Crc32.digest "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.digest "")

let test_crc32_sub_matches_whole () =
  let b = Bytes.of_string "hotnets.org/papers/dip" in
  Alcotest.(check int32) "full slice = digest"
    (Crc32.digest_bytes b)
    (Crc32.digest_sub b ~pos:0 ~len:(Bytes.length b))

let test_crc32_sub_bounds () =
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Crc32.digest_sub: slice out of bounds") (fun () ->
      ignore (Crc32.digest_sub (Bytes.create 4) ~pos:2 ~len:3))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_tabular_render () =
  let t = Tabular.create ~aligns:[ Tabular.Left; Tabular.Right ] [ "name"; "size" ] in
  Tabular.add_row t [ "IPv4"; "20" ];
  Tabular.add_row t [ "DIP-32"; "26" ];
  let s = Tabular.render t in
  Alcotest.(check bool) "mentions rows" true
    (String.length s > 0 && contains s "IPv4" && contains s "DIP-32")

let test_tabular_arity () =
  let t = Tabular.create [ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Tabular.add_row: arity mismatch")
    (fun () -> Tabular.add_row t [ "only-one" ])

let test_hex_dump_format () =
  let s = Format.asprintf "%a" Hex.dump "0123456789ABCDEF!" in
  (* Two lines (17 bytes), offsets, and the ASCII gutter. *)
  Alcotest.(check bool) "offset 0" true (contains s "00000000");
  Alcotest.(check bool) "offset 16" true (contains s "00000010");
  Alcotest.(check bool) "ascii gutter" true (contains s "|0123456789ABCDEF|")

(* Streams pinned when the state was a boxed int64: storing it in
   bytes moved no draw. *)
let test_prng_golden () =
  let a = Prng.create 42L in
  let next g = Prng.next64 g in
  let a1 = next a in
  let a2 = next a in
  let a3 = next a in
  Alcotest.(check (list int64)) "create 42"
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ]
    [ a1; a2; a3 ];
  let b = Prng.split a in
  let b1 = next b in
  let b2 = next b in
  let a4 = next a in
  Alcotest.(check (list int64)) "split, then the parent"
    [ -3524509440982052747L; -8948382647134174731L; 701532786141963250L ]
    [ b1; b2; a4 ];
  let c = Prng.copy a in
  let c1 = next c in
  let a5 = next a in
  Alcotest.(check (list int64)) "copy"
    [ -2430762948046562554L; -2430762948046562554L ]
    [ c1; a5 ];
  let d = Prng.create 7L in
  let f1 = Prng.float d 1.0 in
  let f2 = Prng.float d 1.0 in
  let f3 = Prng.float d 0.005 in
  Alcotest.(check (list (float 0.0))) "float"
    [ 0x1.8f2f879164c82p-2; 0x1.130f35fd0f18p-6; 0x1.27294852da7c6p-8 ]
    [ f1; f2; f3 ];
  let i1 = Prng.int d 256 in
  let i2 = Prng.int d 1000003 in
  let i3 = Prng.int d max_int in
  let i4 = Prng.int_in d 1 255 in
  Alcotest.(check (list int)) "int" [ 114; 75416; 1150299863866387076; 90 ]
    [ i1; i2; i3; i4 ];
  Alcotest.(check int64) "create -1" (-1956407806741107680L) (next (Prng.create (-1L)))

(* The CRC register as first written: an [int32] table and an [int32]
   register, one closure call per byte. *)
let crc_ref_table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        if Int32.logand !c 1l <> 0l then
          c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
        else c := Int32.shift_right_logical !c 1
      done;
      !c)

let crc_ref ~init b ~pos ~len =
  let crc = ref (Int32.lognot init) in
  for i = pos to pos + len - 1 do
    crc :=
      Int32.logxor
        crc_ref_table.(Int32.to_int
                         (Int32.logand
                            (Int32.logxor !crc (Int32.of_int (Char.code (Bytes.get b i))))
                            0xFFl))
        (Int32.shift_right_logical !crc 8)
  done;
  Int32.lognot !crc

let prop_crc32_reference =
  QCheck.Test.make ~name:"crc32: every slice = int32 reference" ~count:200
    QCheck.(pair (string_gen_of_size (Gen.int_bound 40) Gen.char) int32)
    (fun (s, init) ->
      let b = Bytes.of_string s and n = String.length s in
      let unsigned x = Int32.to_int x land 0xFFFFFFFF in
      Crc32.digest ~init s = crc_ref ~init b ~pos:0 ~len:n
      && Crc32.digest_bytes ~init b = crc_ref ~init b ~pos:0 ~len:n
      && List.for_all
           (fun pos ->
             List.for_all
               (fun len ->
                 let r = crc_ref ~init b ~pos ~len in
                 Crc32.digest_sub ~init b ~pos ~len = r
                 && Crc32.digest_sub_int ~init:(unsigned init) b ~pos ~len = unsigned r)
               (List.init (n - pos + 1) Fun.id))
           (List.init (n + 1) Fun.id))

(* QCheck properties *)

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex: decode . encode = id" ~count:500
    QCheck.string (fun s -> Hex.decode (Hex.encode s) = s)

let prop_crc32_incremental =
  QCheck.Test.make ~name:"crc32: differs on single-bit flip" ~count:200
    QCheck.(pair small_string small_nat)
    (fun (s, i) ->
      QCheck.assume (String.length s > 0);
      let i = i mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      Crc32.digest s <> Crc32.digest (Bytes.to_string b))

let prop_prng_int_uniform_support =
  QCheck.Test.make ~name:"prng: int covers support" ~count:50
    QCheck.(int_range 1 8)
    (fun bound ->
      let g = Prng.create (Int64.of_int (bound * 7919)) in
      let seen = Array.make bound false in
      for _ = 1 to 2000 do
        seen.(Prng.int g bound) <- true
      done;
      Array.for_all Fun.id seen)

let () =
  Alcotest.run "stdext"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_prng_int_in;
          Alcotest.test_case "int invalid bound" `Quick test_prng_int_invalid;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "bytes length" `Quick test_prng_bytes_len;
          Alcotest.test_case "shuffle is permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "zipf range" `Quick test_prng_zipf_range;
          Alcotest.test_case "zipf skew" `Quick test_prng_zipf_skew;
          Alcotest.test_case "exponential positive" `Quick test_prng_exponential_positive;
          Alcotest.test_case "golden values" `Quick test_prng_golden;
          QCheck_alcotest.to_alcotest prop_prng_int_uniform_support;
        ] );
      ( "hex",
        [
          Alcotest.test_case "roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "known vector" `Quick test_hex_encode_known;
          Alcotest.test_case "uppercase" `Quick test_hex_decode_upper;
          Alcotest.test_case "invalid input" `Quick test_hex_decode_invalid;
          Alcotest.test_case "dump format" `Quick test_hex_dump_format;
          QCheck_alcotest.to_alcotest prop_hex_roundtrip;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc32_known_vectors;
          Alcotest.test_case "sub matches whole" `Quick test_crc32_sub_matches_whole;
          Alcotest.test_case "sub bounds" `Quick test_crc32_sub_bounds;
          QCheck_alcotest.to_alcotest prop_crc32_incremental;
          QCheck_alcotest.to_alcotest prop_crc32_reference;
        ] );
      ( "tabular",
        [
          Alcotest.test_case "render" `Quick test_tabular_render;
          Alcotest.test_case "arity mismatch" `Quick test_tabular_arity;
        ] );
    ]

(* Unit and property tests for the bit-granular packet buffer, the
   substrate every Field Operation reads from and writes to. *)

open Dip_bitbuf

let field ~off ~len = Field.v ~off_bits:off ~len_bits:len

(* Bit [i] of [b], MSB-first, read as a one-bit field. *)
let bit b i = Bitbuf.get_uint b (field ~off:i ~len:1) = 1L
let set_bit b i = Bitbuf.set_uint b (field ~off:i ~len:1) 1L

let test_field_validation () =
  Alcotest.check_raises "negative offset"
    (Invalid_argument "Field.v: negative offset") (fun () ->
      ignore (field ~off:(-1) ~len:8));
  Alcotest.check_raises "zero length"
    (Invalid_argument "Field.v: non-positive length") (fun () ->
      ignore (field ~off:0 ~len:0))

let test_field_byte_span () =
  Alcotest.(check (pair int int)) "aligned" (1, 2)
    (Field.byte_span (field ~off:8 ~len:16));
  Alcotest.(check (pair int int)) "straddles" (0, 2)
    (Field.byte_span (field ~off:4 ~len:8));
  Alcotest.(check (pair int int)) "single bit" (2, 1)
    (Field.byte_span (field ~off:23 ~len:1))

let test_field_alignment () =
  Alcotest.(check bool) "aligned" true (Field.is_byte_aligned (field ~off:16 ~len:32));
  Alcotest.(check bool) "odd offset" false (Field.is_byte_aligned (field ~off:3 ~len:8));
  Alcotest.(check bool) "odd length" false (Field.is_byte_aligned (field ~off:8 ~len:5))

let test_field_overlap () =
  let a = field ~off:0 ~len:32 and b = field ~off:16 ~len:32 in
  let c = field ~off:32 ~len:8 in
  Alcotest.(check bool) "a/b overlap" true (Field.overlaps a b);
  Alcotest.(check bool) "a/c adjacent, no overlap" false (Field.overlaps a c);
  Alcotest.(check bool) "symmetric" true (Field.overlaps b a)

let test_field_contains () =
  let outer = field ~off:0 ~len:544 and inner = field ~off:288 ~len:128 in
  Alcotest.(check bool) "OPT ver contains mark" true (Field.contains outer inner);
  Alcotest.(check bool) "not reversed" false (Field.contains inner outer)

let test_bits_roundtrip () =
  let b = Bitbuf.create 4 in
  set_bit b 0;
  set_bit b 7;
  set_bit b 31;
  Alcotest.(check bool) "bit 0" true (bit b 0);
  Alcotest.(check bool) "bit 1 untouched" false (bit b 1);
  Alcotest.(check bool) "bit 7" true (bit b 7);
  Alcotest.(check bool) "bit 31" true (bit b 31);
  (* MSB-first layout: bits 0 and 7 of byte 0 are 0x81. *)
  Alcotest.(check int) "byte 0" 0x81 (Bitbuf.get_uint8 b 0)

let test_uint_aligned () =
  let b = Bitbuf.create 8 in
  Bitbuf.set_uint b (field ~off:0 ~len:32) 0xDEADBEEFL;
  Alcotest.(check int64) "read back" 0xDEADBEEFL
    (Bitbuf.get_uint b (field ~off:0 ~len:32));
  Alcotest.(check int32) "byte accessor agrees" 0xDEADBEEFl
    (Bitbuf.get_uint32 b 0)

let test_uint_unaligned () =
  let b = Bitbuf.create 8 in
  (* A 12-bit field at bit 5 straddles three nibbles. *)
  let f = field ~off:5 ~len:12 in
  Bitbuf.set_uint b f 0xABCL;
  Alcotest.(check int64) "read back" 0xABCL (Bitbuf.get_uint b f);
  (* Neighbours untouched. *)
  Alcotest.(check int64) "bits before" 0L (Bitbuf.get_uint b (field ~off:0 ~len:5));
  Alcotest.(check int64) "bits after" 0L (Bitbuf.get_uint b (field ~off:17 ~len:47))

let test_uint_width_guard () =
  let b = Bitbuf.create 4 in
  Alcotest.check_raises "value too wide"
    (Invalid_argument "Bitbuf.set_uint: value exceeds field width") (fun () ->
      Bitbuf.set_uint b (field ~off:0 ~len:4) 16L)

let test_uint_bounds_guard () =
  let b = Bitbuf.create 2 in
  Alcotest.(check bool) "oob read raises" true
    (try
       ignore (Bitbuf.get_uint b (field ~off:10 ~len:8));
       false
     with Invalid_argument _ -> true)

let test_uint64_full_width () =
  let b = Bitbuf.create 9 in
  let f = field ~off:3 ~len:64 in
  Bitbuf.set_uint b f (-1L);
  Alcotest.(check int64) "all ones survive" (-1L) (Bitbuf.get_uint b f);
  Alcotest.(check int64) "prefix clean" 0L (Bitbuf.get_uint b (field ~off:0 ~len:3))

let test_byte_accessors () =
  let b = Bitbuf.create 16 in
  Bitbuf.set_uint16 b 2 0xCAFE;
  Bitbuf.set_uint32 b 8 0x11223344l;
  Alcotest.(check int) "u16" 0xCAFE (Bitbuf.get_uint16 b 2);
  Alcotest.(check int32) "u32" 0x11223344l (Bitbuf.get_uint32 b 8)

let test_field_string_aligned () =
  let b = Bitbuf.create 16 in
  let f = field ~off:32 ~len:64 in
  Bitbuf.set_field b f "ABCDEFGH";
  Alcotest.(check string) "read back" "ABCDEFGH" (Bitbuf.get_field b f)

let test_field_string_unaligned () =
  let b = Bitbuf.create 16 in
  let f = field ~off:3 ~len:20 in
  (* 20 bits -> 3 bytes, last 4 bits must be zero padding. *)
  let v = "\xAB\xCD\xE0" in
  Bitbuf.set_field b f v;
  Alcotest.(check string) "read back" v (Bitbuf.get_field b f)

let test_field_string_padding_guard () =
  let b = Bitbuf.create 16 in
  let f = field ~off:0 ~len:20 in
  Alcotest.check_raises "dirty padding"
    (Invalid_argument "Bitbuf: non-zero padding bits in unaligned field value")
    (fun () -> Bitbuf.set_field b f "\xAB\xCD\xEF")

let test_copy_independent () =
  let a = Bitbuf.create 4 in
  let b = Bitbuf.copy a in
  Bitbuf.set_uint8 b 0 0xFF;
  Alcotest.(check int) "original untouched" 0 (Bitbuf.get_uint8 a 0)

let test_blit_check () =
  let src = Bitbuf.of_string "0123456789" in
  let dst = Bitbuf.create 10 in
  Bitbuf.blit ~src ~src_off:2 ~dst ~dst_off:5 ~len:3;
  Alcotest.(check string) "blitted" "\000\000\000\000\000234\000\000"
    (Bitbuf.to_string dst)

(* QCheck properties. *)

let arb_field_in bits =
  QCheck.make
    ~print:(fun (o, l) -> Printf.sprintf "(off:%d,len:%d)" o l)
    QCheck.Gen.(
      let* len = int_range 1 (min 64 bits) in
      let* off = int_range 0 (bits - len) in
      return (off, len))

let prop_uint_roundtrip =
  QCheck.Test.make ~name:"bitbuf: set_uint/get_uint roundtrip" ~count:1000
    QCheck.(pair (arb_field_in 256) int64)
    (fun ((off, len), raw) ->
      let f = field ~off ~len in
      let v =
        if len = 64 then raw
        else Int64.logand raw (Int64.sub (Int64.shift_left 1L len) 1L)
      in
      let b = Bitbuf.create 32 in
      Bitbuf.set_uint b f v;
      Bitbuf.get_uint b f = v)

let prop_uint_neighbours_untouched =
  QCheck.Test.make ~name:"bitbuf: set_uint leaves neighbours alone" ~count:500
    (arb_field_in 128)
    (fun (off, len) ->
      let f = field ~off ~len in
      let b = Bitbuf.create 16 in
      (* Fill with a known pattern, write all-ones into f, then check
         every bit outside f still matches the pattern. *)
      for i = 0 to 15 do
        Bitbuf.set_uint8 b i 0x5A
      done;
      let before = Array.init 128 (fun i -> bit b i) in
      let ones =
        if len = 64 then -1L else Int64.sub (Int64.shift_left 1L len) 1L
      in
      Bitbuf.set_uint b f ones;
      let ok = ref true in
      for i = 0 to 127 do
        if i < off || i >= off + len then
          if bit b i <> before.(i) then ok := false
      done;
      !ok)

let arb_wide_field_in bits =
  QCheck.make
    ~print:(fun (o, l) -> Printf.sprintf "(off:%d,len:%d)" o l)
    QCheck.Gen.(
      let* len = int_range 1 (bits / 2) in
      let* off = int_range 0 (bits - len) in
      return (off, len))

let prop_field_roundtrip =
  QCheck.Test.make ~name:"bitbuf: set_field/get_field roundtrip" ~count:500
    (arb_wide_field_in 1024)
    (fun (off, len) ->
      let f = field ~off ~len in
      let b = Bitbuf.create 128 in
      let width = (len + 7) / 8 in
      let g = Dip_stdext.Prng.create (Int64.of_int ((off * 131) + len)) in
      let v = Bytes.to_string (Dip_stdext.Prng.bytes g width) in
      (* Clear padding bits so the value is well-formed. *)
      let v =
        let pad = (8 - (len mod 8)) mod 8 in
        if pad = 0 then v
        else
          let bv = Bytes.of_string v in
          let last = Bytes.length bv - 1 in
          Bytes.set bv last
            (Char.chr (Char.code (Bytes.get bv last) land (0xFF lsl pad) land 0xFF));
          Bytes.to_string bv
      in
      Bitbuf.set_field b f v;
      Bitbuf.get_field b f = v)

let () =
  Alcotest.run "bitbuf"
    [
      ( "field",
        [
          Alcotest.test_case "validation" `Quick test_field_validation;
          Alcotest.test_case "byte span" `Quick test_field_byte_span;
          Alcotest.test_case "alignment" `Quick test_field_alignment;
          Alcotest.test_case "overlap" `Quick test_field_overlap;
          Alcotest.test_case "contains" `Quick test_field_contains;
        ] );
      ( "bits",
        [
          Alcotest.test_case "bit roundtrip" `Quick test_bits_roundtrip;
          Alcotest.test_case "uint aligned" `Quick test_uint_aligned;
          Alcotest.test_case "uint unaligned" `Quick test_uint_unaligned;
          Alcotest.test_case "uint width guard" `Quick test_uint_width_guard;
          Alcotest.test_case "uint bounds guard" `Quick test_uint_bounds_guard;
          Alcotest.test_case "uint64 full width" `Quick test_uint64_full_width;
          Alcotest.test_case "byte accessors" `Quick test_byte_accessors;
          QCheck_alcotest.to_alcotest prop_uint_roundtrip;
          QCheck_alcotest.to_alcotest prop_uint_neighbours_untouched;
        ] );
      ( "fields",
        [
          Alcotest.test_case "string aligned" `Quick test_field_string_aligned;
          Alcotest.test_case "string unaligned" `Quick test_field_string_unaligned;
          Alcotest.test_case "padding guard" `Quick test_field_string_padding_guard;
          Alcotest.test_case "copy independent" `Quick test_copy_independent;
          Alcotest.test_case "blit" `Quick test_blit_check;
          QCheck_alcotest.to_alcotest prop_field_roundtrip;
        ] );
    ]

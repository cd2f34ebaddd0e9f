(* Tests for the crypto substrate: the ARX permutation, 2EM,
   AES-128 (FIPS-197 known-answer vector), CBC-MAC and the PRF. *)

open Dip_crypto

let hex = Dip_stdext.Hex.decode

let test_arx_inverse () =
  let g = Dip_stdext.Prng.create 11L in
  for _ = 1 to 200 do
    let b = (Dip_stdext.Prng.next64 g, Dip_stdext.Prng.next64 g) in
    let b' = Arx_perm.backward (Arx_perm.forward b) in
    Alcotest.(check bool) "backward . forward = id" true (b = b')
  done

let test_arx_not_identity () =
  let b = (0L, 0L) in
  Alcotest.(check bool) "permutes zero block" true (Arx_perm.forward b <> b)

let test_arx_string_roundtrip () =
  let s = "0123456789abcdef" in
  Alcotest.(check string) "roundtrip" s Arx_perm.(to_string (of_string s))

let test_arx_diffusion () =
  (* Flipping one input bit must flip a substantial number of output
     bits (avalanche). We accept anything in [30, 98] of 128. *)
  let base = Arx_perm.forward (0x0123456789ABCDEFL, 0xFEDCBA9876543210L) in
  let flipped = Arx_perm.forward (0x0123456789ABCDEBL, 0xFEDCBA9876543210L) in
  let popcount x =
    let rec go x acc = if x = 0L then acc
      else go (Int64.shift_right_logical x 1)
             (acc + Int64.to_int (Int64.logand x 1L))
    in
    go x 0
  in
  let d =
    popcount (Int64.logxor (fst base) (fst flipped))
    + popcount (Int64.logxor (snd base) (snd flipped))
  in
  Alcotest.(check bool) (Printf.sprintf "avalanche (%d bits)" d) true
    (d >= 30 && d <= 98)

let em_key = Even_mansour.expand_key "em-master-key-16"

let test_em_roundtrip () =
  let g = Dip_stdext.Prng.create 12L in
  for _ = 1 to 100 do
    let block = Bytes.to_string (Dip_stdext.Prng.bytes g 16) in
    Alcotest.(check string) "decrypt . encrypt = id" block
      (Even_mansour.decrypt_block em_key (Even_mansour.encrypt_block em_key block))
  done

let test_em_key_separation () =
  let k2 = Even_mansour.expand_key "em-master-key-17" in
  let block = "0123456789abcdef" in
  Alcotest.(check bool) "different keys, different ciphertexts" true
    (Even_mansour.encrypt_block em_key block
    <> Even_mansour.encrypt_block k2 block)

let test_em_bad_sizes () =
  Alcotest.check_raises "short key"
    (Invalid_argument "Even_mansour.expand_key: need a 16-byte key") (fun () ->
      ignore (Even_mansour.expand_key "short"));
  Alcotest.check_raises "short block"
    (Invalid_argument "Even_mansour: block must be 16 bytes") (fun () ->
      ignore (Even_mansour.encrypt_block em_key "short"))

let test_em_single_pass () =
  Alcotest.(check int) "2EM is single-pass on PISA" 1 Even_mansour.passes

let test_aes_fips197 () =
  (* FIPS-197 Appendix C.1 known-answer test. *)
  let key = Aes128.expand_key (hex "000102030405060708090a0b0c0d0e0f") in
  let pt = hex "00112233445566778899aabbccddeeff" in
  let ct = Aes128.encrypt_block key pt in
  Alcotest.(check string) "FIPS-197 C.1 ciphertext"
    "69c4e0d86a7b0430d8cdb78070b4c55a"
    (Dip_stdext.Hex.encode ct);
  Alcotest.(check string) "decrypts back"
    (Dip_stdext.Hex.encode pt)
    (Dip_stdext.Hex.encode (Aes128.decrypt_block key ct))

let test_aes_sp800_38a () =
  (* NIST SP 800-38A, ECB-AES128.Encrypt, block #1. *)
  let key = Aes128.expand_key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  Alcotest.(check string) "SP 800-38A block 1"
    "3ad77bb40d7a3660a89ecaf32466ef97"
    (Dip_stdext.Hex.encode
       (Aes128.encrypt_block key (hex "6bc1bee22e409f96e93d7e117393172a")))

let test_aes_roundtrip () =
  let g = Dip_stdext.Prng.create 13L in
  let key = Aes128.expand_key (Bytes.to_string (Dip_stdext.Prng.bytes g 16)) in
  for _ = 1 to 50 do
    let block = Bytes.to_string (Dip_stdext.Prng.bytes g 16) in
    Alcotest.(check string) "decrypt . encrypt = id" block
      (Aes128.decrypt_block key (Aes128.encrypt_block key block))
  done

let test_aes_multi_pass () =
  Alcotest.(check bool) "AES needs resubmission on PISA" true (Aes128.passes > 1)

(* Mac2em is the library's one 2EM MAC, the kernel Prf, OPT and EPIC
   call; AES goes through the per-block functor. *)
module MacAes = Cbc_mac.Make (Aes128)

let mac_key = Mac2em.expand_key "mac-master-key-1"

let test_mac_deterministic () =
  let m = "the quick brown fox" in
  Alcotest.(check string) "same input, same tag" (Mac2em.mac mac_key m)
    (Mac2em.mac mac_key m)

let test_mac_distinct_messages () =
  Alcotest.(check bool) "tags differ" true
    (Mac2em.mac mac_key "message-a" <> Mac2em.mac mac_key "message-b")

let test_mac_length_extension_guard () =
  (* "a" followed by zero padding must not collide with the padded
     block itself: the length prefix separates them. *)
  let a = Mac2em.mac mac_key "a" in
  let b = Mac2em.mac mac_key ("a" ^ String.make 15 '\000') in
  Alcotest.(check bool) "length-prefixed domains" true (a <> b)

let test_mac_empty_message () =
  Alcotest.(check int) "tag width" 16 (String.length (Mac2em.mac mac_key ""))

let test_mac_truncation () =
  let m = "hotnets.org" in
  let full = Mac2em.mac mac_key m in
  Alcotest.(check string) "prefix" (String.sub full 0 4)
    (Mac2em.mac_truncated mac_key 4 m);
  Alcotest.check_raises "bad length"
    (Invalid_argument "Mac2em.mac_truncated: bad tag length") (fun () ->
      ignore (Mac2em.mac_truncated mac_key 17 m))

let test_mac_verify () =
  let m = "payload" in
  let tag = Mac2em.mac_truncated mac_key 16 m in
  Alcotest.(check bool) "accepts valid" true (Mac2em.verify mac_key ~tag m);
  Alcotest.(check bool) "rejects tampered msg" false
    (Mac2em.verify mac_key ~tag "Payload");
  let bad = Bytes.of_string tag in
  Bytes.set bad 0 (Char.chr (Char.code (Bytes.get bad 0) lxor 1));
  Alcotest.(check bool) "rejects tampered tag" false
    (Mac2em.verify mac_key ~tag:(Bytes.to_string bad) m);
  Alcotest.(check bool) "rejects empty tag" false (Mac2em.verify mac_key ~tag:"" m)

let test_mac_ciphers_disagree () =
  (* Same raw key bytes, different ciphers: tags must differ, which
     is what makes the A2 ablation a real comparison. *)
  let k2 = MacAes.expand_key "mac-master-key-1" in
  Alcotest.(check bool) "2EM and AES tags differ" true
    (Mac2em.mac mac_key "x" <> MacAes.mac k2 "x")

let test_prf_derivation () =
  let k = Prf.key_of_string "prf-master-key-0" in
  let a = Prf.derive k ~label:"pvf" "session-1" in
  let b = Prf.derive k ~label:"opv" "session-1" in
  let c = Prf.derive k ~label:"pvf" "session-2" in
  Alcotest.(check int) "width" 16 (String.length a);
  Alcotest.(check bool) "labels separate" true (a <> b);
  Alcotest.(check bool) "inputs separate" true (a <> c);
  Alcotest.(check string) "deterministic" a (Prf.derive k ~label:"pvf" "session-1")

let test_prf_label_framing () =
  let k = Prf.key_of_string "prf-master-key-0" in
  (* ("ab","c") and ("a","bc") must not collide. *)
  Alcotest.(check bool) "framing" true
    (Prf.derive k ~label:"ab" "c" <> Prf.derive k ~label:"a" "bc")

let test_prf_int () =
  let k = Prf.key_of_string "prf-master-key-0" in
  Alcotest.(check bool) "distinct ints" true
    (Prf.derive_int k ~label:"s" 1L <> Prf.derive_int k ~label:"s" 2L)

let test_siphash_reference_vectors () =
  (* Reference vectors from the SipHash paper's test program:
     key = 000102...0f, messages are prefixes of 00 01 02 ... *)
  let k = Siphash.default_key in
  let input n = String.init n Char.chr in
  Alcotest.(check int64) "empty" 0x726fdb47dd0e0e31L (Siphash.hash k (input 0));
  Alcotest.(check int64) "1 byte" 0x74f839c593dc67fdL (Siphash.hash k (input 1));
  Alcotest.(check int64) "8 bytes" 0x93f5f5799a932462L (Siphash.hash k (input 8))

let test_siphash_key_sensitivity () =
  let k2 = Siphash.key_of_string "0123456789abcdef" in
  Alcotest.(check bool) "keys matter" true
    (Siphash.hash Siphash.default_key "dip" <> Siphash.hash k2 "dip")

let test_siphash_hash32 () =
  let h = Siphash.hash32 Siphash.default_key "hotnets.org" in
  Alcotest.(check int32) "stable fold" h
    (Siphash.hash32 Siphash.default_key "hotnets.org")

(* Known-answer vectors. Every constant below was computed with the
   first (tuple-and-chunk) implementation of the ARX permutation, 2EM
   and the CBC-MAC; the in-place kernels must reproduce them bit for
   bit, and so must everything keyed through them. *)

let hexs = Dip_stdext.Hex.encode

(* A fixed, non-repeating message of [n] bytes. *)
let kat_msg n = String.init n (fun i -> Char.chr (((i * 37) + 11) land 0xFF))

let test_kat_arx () =
  let hi, lo = Arx_perm.forward (0x0123456789ABCDEFL, 0xFEDCBA9876543210L) in
  Alcotest.(check int64) "hi" 0x705d30290c44156fL hi;
  Alcotest.(check int64) "lo" 0x99a1f0f63556c640L lo

let test_kat_em () =
  Alcotest.(check string) "encrypt" "3ed8641eab52c32aba247902da14510d"
    (hexs (Even_mansour.encrypt_block em_key "0123456789abcdef"));
  Alcotest.(check string) "decrypt" "38d46f50304e1f9a2a3a656fe0214115"
    (hexs (Even_mansour.decrypt_block em_key "0123456789abcdef"))

let kat_macs =
  [
    (0, "d65050907cac89cc10d807434156fbae", "b656048f311ba4049dd68faa16b7d75a");
    (1, "f577210b3ab49140c9f91f1d58792970", "0eb9aca0b1868ef22d4fac6ca6a33b1f");
    (15, "f2d33718a167a35e6fc9342c6c713978", "1d81d267a07d55a89094a42a78d910b1");
    (16, "6f944116955eaddee6c62a9a619dcf99", "99f1108223f73d3d07adc219a7b5d1af");
    (17, "c46ad5c7fa59a493c35500ed4a47fa06", "2e06f60f77770b596a230f5c33ef7253");
    (52, "f1b5b07c81cc8c0313a1640865446369", "b30fdc39ff7e1ac99d0efc0343655d91");
    (100, "bbc10fb3481804ca85251849ff8c0487", "5eb0f9025485461d5361592ccbf5635f");
  ]

let test_kat_mac () =
  let ka = MacAes.expand_key "mac-master-key-1" in
  List.iter
    (fun (n, em, aes) ->
      Alcotest.(check string) (Printf.sprintf "2EM, %d bytes" n) em
        (hexs (Mac2em.mac mac_key (kat_msg n)));
      Alcotest.(check string) (Printf.sprintf "AES, %d bytes" n) aes
        (hexs (MacAes.mac ka (kat_msg n))))
    kat_macs

let kat_session = 0x1122334455667788L
let kat_secret = Dip_opt.Drkey.secret_of_string "router-secret-00"

let test_kat_derivations () =
  Alcotest.(check string) "Prf.derive" "e712fd62af48f6a94de08ed62c64d6ae"
    (hexs (Prf.derive (Prf.key_of_string "prf-master-key-0") ~label:"pvf" "session-1"));
  Alcotest.(check string) "Drkey.derive" "027f678a158f276fbb91560d917f2a32"
    (hexs (Dip_opt.Drkey.derive kat_secret ~session_id:kat_session));
  Alcotest.(check string) "EPIC derive_key" "2c601b258968a005e71b56b01a0fdace"
    (hexs (Dip_epic.Protocol.derive_key kat_secret ~src:0x0A000001l ~timestamp:1234l))

let test_kat_opt_router_update () =
  let module H = Dip_opt.Header in
  let buf = Dip_bitbuf.Bitbuf.create (H.size_bytes ~hops:1) in
  let dest_key =
    Dip_opt.Drkey.derive
      (Dip_opt.Drkey.secret_of_string "router-secret-01")
      ~session_id:kat_session
  in
  Dip_opt.Protocol.source_init buf ~base:0 ~hops:1 ~session_id:kat_session
    ~timestamp:123456l ~dest_key ~payload:"the data";
  Dip_opt.Protocol.router_update buf ~base:0 ~hop:1
    ~key:(Dip_opt.Drkey.derive kat_secret ~session_id:kat_session);
  Alcotest.(check string) "OPV" "54d9b3de0bc5156580fe13f96388217f"
    (hexs (H.get_opv buf ~base:0 1));
  Alcotest.(check string) "PVF" "0fbf1d95d3d5e022283f8e36a636ff3a"
    (hexs (H.get_pvf buf ~base:0))

(* Allocation. Minor-heap words per call, averaged over [n] calls with
   the key already expanded. The lanes of the ARX rounds only stay
   unboxed while ocamlopt can see that their refs start from a
   primitive result; a compiler that stops unboxing them fails here. *)

let words_per_call ?(n = 1000) f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let check_words label ~max w =
  Alcotest.(check bool) (Printf.sprintf "%s: %.2f words/call <= %d" label w max) true
    (w <= float_of_int max)

let test_alloc_permutation () =
  let b = Bytes.of_string "0123456789abcdef" in
  (* A fraction of a word per call would mean some calls allocate. *)
  check_words "forward_into" ~max:0 (words_per_call (fun () -> Arx_perm.forward_into b 0));
  check_words "backward_into" ~max:0 (words_per_call (fun () -> Arx_perm.backward_into b 0))

let test_alloc_encrypt_into () =
  let b = Bytes.of_string "0123456789abcdef" in
  check_words "2EM encrypt_into" ~max:0
    (words_per_call (fun () -> Even_mansour.encrypt_into em_key b 0));
  let ka = Aes128.expand_key "mac-master-key-1" in
  check_words "AES encrypt_into" ~max:0 (words_per_call (fun () -> Aes128.encrypt_into ka b 0))

let test_alloc_mac () =
  (* The tag (a 16-byte string: 4 words with its header) is the only
     allocation. *)
  let m = kat_msg 52 in
  check_words "52-byte 2EM MAC" ~max:8 (words_per_call (fun () -> ignore (Mac2em.mac mac_key m)))

let test_alloc_key_work () =
  (* What a router hop does per packet: derive from a frame, expand in
     place, MAC a span whose partial tail is read as masked words. *)
  let f = Prf.frame (Prf.key_of_string "prf-master-key-0") ~label:"opt-session" ~input_len:8 in
  let src = Bytes.of_string "session!" and d = Bytes.create 16 and span = Bytes.make 64 'x' in
  let k = Mac2em.expand_key "mac-master-key-1" and ka = Aes128.expand_key "mac-master-key-1" in
  check_words "Prf.derive_into" ~max:0
    (words_per_call (fun () -> Prf.derive_into f src ~off:0 d ~dst_off:0));
  check_words "Even_mansour.expand_key_into" ~max:0
    (words_per_call (fun () -> Even_mansour.expand_key_into d k));
  check_words "Aes128.expand_into" ~max:0 (words_per_call (fun () -> Aes128.expand_into d ka));
  check_words "52-byte 2EM mac_into" ~max:0
    (words_per_call (fun () -> Mac2em.mac_into k span ~off:0 ~len:52 span ~dst_off:48))

(* QCheck properties. *)

let prop_em_roundtrip =
  QCheck.Test.make ~name:"2EM: decrypt . encrypt = id" ~count:300
    QCheck.(string_of_size (QCheck.Gen.return 16))
    (fun block ->
      Even_mansour.decrypt_block em_key (Even_mansour.encrypt_block em_key block)
      = block)

let prop_mac_injective_on_samples =
  QCheck.Test.make ~name:"cbc-mac: distinct strings, distinct tags" ~count:300
    QCheck.(pair small_string small_string)
    (fun (a, b) ->
      QCheck.assume (a <> b);
      Mac2em.mac mac_key a <> Mac2em.mac mac_key b)

let prop_mac_verify_accepts =
  QCheck.Test.make ~name:"cbc-mac: verify accepts own tags" ~count:300
    QCheck.small_string
    (fun m -> Mac2em.verify mac_key ~tag:(Mac2em.mac mac_key m) m)

let key16 = QCheck.(string_of_size (QCheck.Gen.return 16))
let msg0_200 = QCheck.(string_of_size (QCheck.Gen.int_range 0 200))

module Ref2em = Cbc_mac_ref.Make (Cbc_mac_ref.Em2)
module RefAes = Cbc_mac_ref.Make (Aes128)

let prop_mac_matches_reference_2em =
  QCheck.Test.make ~name:"cbc-mac: 2EM kernel = tuple-and-chunk reference" ~count:500
    QCheck.(pair key16 msg0_200)
    (fun (raw, m) ->
      Mac2em.mac (Mac2em.expand_key raw) m
      = Ref2em.mac (Cbc_mac_ref.Em2.expand_key raw) m)

(* Every length from 0 to 80 bytes (every partial-block length, up to
   five full blocks) under several keys, against the reference. *)
let test_mac_every_length () =
  let g = Dip_stdext.Prng.create 14L in
  for _ = 1 to 6 do
    let raw = Bytes.to_string (Dip_stdext.Prng.bytes g 16) in
    let k = Mac2em.expand_key raw and kr = Cbc_mac_ref.Em2.expand_key raw in
    for n = 0 to 80 do
      let m = Bytes.to_string (Dip_stdext.Prng.bytes g n) in
      Alcotest.(check string) (Printf.sprintf "%d bytes" n) (hexs (Ref2em.mac kr m))
        (hexs (Mac2em.mac k m))
    done
  done

(* The kernel reads a span inside a larger buffer and may write its
   tag over that span. *)
let prop_mac_into_span =
  QCheck.Test.make ~name:"cbc-mac: 2EM mac_into = mac on the span" ~count:300
    QCheck.(triple key16 msg0_200 (pair (int_range 0 40) (int_range 0 40)))
    (fun (raw, m, (pre, post)) ->
      let k = Mac2em.expand_key raw in
      let b = Bytes.make (pre + String.length m + post + 16) '\xa5' in
      Bytes.blit_string m 0 b pre (String.length m);
      Mac2em.mac_into k b ~off:pre ~len:(String.length m) b ~dst_off:pre;
      Bytes.sub_string b pre 16 = Mac2em.mac k m)

(* Every length from 0 to 80 bytes, each with 0 to 16 bytes of the
   buffer after the message: a partial last block is read as masked
   words when the buffer holds 16 bytes from its start, else byte by
   byte, so both tail paths run at every partial length. The slack is
   filled with non-zero bytes the mask must drop. *)
let test_mac_into_every_slack () =
  let g = Dip_stdext.Prng.create 15L in
  for _ = 1 to 3 do
    let raw = Bytes.to_string (Dip_stdext.Prng.bytes g 16) in
    let k = Mac2em.expand_key raw and kr = Cbc_mac_ref.Em2.expand_key raw in
    for n = 0 to 80 do
      let m = Bytes.to_string (Dip_stdext.Prng.bytes g n) in
      let want = hexs (Ref2em.mac kr m) in
      for slack = 0 to 16 do
        let b = Bytes.cat (Bytes.of_string m) (Bytes.make slack '\xff') in
        let tag = Bytes.create 16 in
        Mac2em.mac_into k b ~off:0 ~len:n tag ~dst_off:0;
        Alcotest.(check string) (Printf.sprintf "%d bytes, %d slack" n slack) want
          (hexs (Bytes.to_string tag))
      done
    done
  done

(* A MAC resumed from the state after its length block, at any offset
   and with the tag written over the state, is the full MAC. *)
let prop_mac_resume =
  QCheck.Test.make ~name:"cbc-mac: resume_into from midstate_into = mac" ~count:300
    QCheck.(triple key16 msg0_200 (pair (int_range 0 20) (int_range 0 20)))
    (fun (raw, m, (pre, post)) ->
      let k = Mac2em.expand_key raw and n = String.length m in
      let b = Bytes.make (pre + n + post) '\x3c' in
      Bytes.blit_string m 0 b pre n;
      let st = Bytes.make (post + 16) '\x00' in
      Mac2em.midstate_into k ~len:n st ~dst_off:post;
      Mac2em.resume_into k st ~st_off:post b ~off:pre ~len:n st ~dst_off:post;
      Bytes.sub_string st post 16 = Mac2em.mac k m)

(* A schedule rewritten in place, over one that held another key, is
   the fresh schedule of the new key. *)
let prop_expand_into =
  QCheck.Test.make ~name:"key schedules: expand_key_into, expand_into = expand_key" ~count:200
    QCheck.(pair key16 key16)
    (fun (old_raw, raw) ->
      let k = Mac2em.expand_key old_raw and ka = Aes128.expand_key old_raw in
      Even_mansour.expand_key_into (Bytes.of_string raw) k;
      Aes128.expand_into (Bytes.of_string raw) ka;
      let em m = Mac2em.mac k m = Mac2em.mac (Mac2em.expand_key raw) m in
      let aes m = MacAes.mac ka m = MacAes.mac (MacAes.expand_key raw) m in
      Bytes.equal (k :> Bytes.t) (Even_mansour.expand_key raw :> Bytes.t)
      && em "" && em (kat_msg 52)
      && aes "" && aes (kat_msg 52)
      && Aes128.encrypt_block ka "0123456789abcdef"
         = Aes128.encrypt_block (Aes128.expand_key raw) "0123456789abcdef")

(* Prf.derive frames its input as (32-bit label length, label, input);
   the reference builds that framing with a Buffer and MACs it with the
   reference CBC-MAC. *)
let ref_derive raw ~label input =
  let b = Buffer.create 64 in
  Buffer.add_int32_be b (Int32.of_int (String.length label));
  Buffer.add_string b label;
  Buffer.add_string b input;
  Ref2em.mac (Cbc_mac_ref.Em2.expand_key raw) (Buffer.contents b)

let prop_prf_matches_reference =
  QCheck.Test.make ~name:"prf: derive, derive_int = reference framing" ~count:300
    QCheck.(quad key16 small_string msg0_200 int64)
    (fun (raw, label, input, v) ->
      let k = Prf.key_of_string raw in
      let v8 = Bytes.create 8 in
      Bytes.set_int64_be v8 0 v;
      Prf.derive k ~label input = ref_derive raw ~label input
      && Prf.derive_int k ~label v = ref_derive raw ~label (Bytes.to_string v8))

(* One frame, reused: each derivation from it, of inputs read at any
   offset, is the reference framing's. *)
let prop_prf_frame_reuse =
  QCheck.Test.make ~name:"prf: derive_into on a reused frame = reference framing" ~count:100
    QCheck.(
      triple key16 small_string
        (pair (int_range 0 24) (list_of_size (Gen.int_range 1 5) (string_of_size (Gen.return 8)))))
    (fun (raw, label, (off, inputs)) ->
      let f = Prf.frame (Prf.key_of_string raw) ~label ~input_len:8 in
      let tag = Bytes.create (off + 16) in
      List.for_all
        (fun input ->
          let src = Bytes.make (off + 8) '\x77' in
          Bytes.blit_string input 0 src off 8;
          Prf.derive_into f src ~off tag ~dst_off:off;
          Bytes.sub_string tag off 16 = ref_derive raw ~label input)
        inputs)

let prop_mac_matches_reference_aes =
  QCheck.Test.make ~name:"cbc-mac: AES kernel = chunked reference" ~count:200
    QCheck.(pair key16 msg0_200)
    (fun (raw, m) ->
      MacAes.mac (MacAes.expand_key raw) m = RefAes.mac (Aes128.expand_key raw) m)

let prop_arx_in_place_inverse =
  QCheck.Test.make ~name:"arx: backward_into . forward_into = id" ~count:300
    QCheck.(pair (int_range 0 8) key16)
    (fun (off, blk) ->
      let b = Bytes.make (off + 20) '\x5a' in
      Bytes.blit_string blk 0 b off 16;
      let before = Bytes.copy b in
      Arx_perm.forward_into b off;
      let moved = not (Bytes.equal b before) in
      Arx_perm.backward_into b off;
      moved && Bytes.equal b before)

let () =
  Alcotest.run "crypto"
    [
      ( "arx",
        [
          Alcotest.test_case "inverse" `Quick test_arx_inverse;
          Alcotest.test_case "not identity" `Quick test_arx_not_identity;
          Alcotest.test_case "string roundtrip" `Quick test_arx_string_roundtrip;
          Alcotest.test_case "diffusion" `Quick test_arx_diffusion;
          QCheck_alcotest.to_alcotest prop_arx_in_place_inverse;
        ] );
      ( "even-mansour",
        [
          Alcotest.test_case "roundtrip" `Quick test_em_roundtrip;
          Alcotest.test_case "key separation" `Quick test_em_key_separation;
          Alcotest.test_case "bad sizes" `Quick test_em_bad_sizes;
          Alcotest.test_case "single pass" `Quick test_em_single_pass;
          QCheck_alcotest.to_alcotest prop_em_roundtrip;
        ] );
      ( "aes128",
        [
          Alcotest.test_case "FIPS-197 vector" `Quick test_aes_fips197;
          Alcotest.test_case "SP 800-38A vector" `Quick test_aes_sp800_38a;
          Alcotest.test_case "roundtrip" `Quick test_aes_roundtrip;
          Alcotest.test_case "multi pass" `Quick test_aes_multi_pass;
        ] );
      ( "cbc-mac",
        [
          Alcotest.test_case "deterministic" `Quick test_mac_deterministic;
          Alcotest.test_case "distinct messages" `Quick test_mac_distinct_messages;
          Alcotest.test_case "length prefix" `Quick test_mac_length_extension_guard;
          Alcotest.test_case "empty message" `Quick test_mac_empty_message;
          Alcotest.test_case "truncation" `Quick test_mac_truncation;
          Alcotest.test_case "verify" `Quick test_mac_verify;
          Alcotest.test_case "ciphers disagree" `Quick test_mac_ciphers_disagree;
          QCheck_alcotest.to_alcotest prop_mac_injective_on_samples;
          QCheck_alcotest.to_alcotest prop_mac_verify_accepts;
          QCheck_alcotest.to_alcotest prop_mac_matches_reference_2em;
          QCheck_alcotest.to_alcotest prop_mac_matches_reference_aes;
          Alcotest.test_case "2EM kernel, every length to 80" `Quick test_mac_every_length;
          QCheck_alcotest.to_alcotest prop_mac_into_span;
          Alcotest.test_case "2EM mac_into, every length and slack" `Quick
            test_mac_into_every_slack;
          QCheck_alcotest.to_alcotest prop_mac_resume;
          QCheck_alcotest.to_alcotest prop_expand_into;
        ] );
      ( "prf",
        [
          Alcotest.test_case "derivation" `Quick test_prf_derivation;
          Alcotest.test_case "label framing" `Quick test_prf_label_framing;
          Alcotest.test_case "int input" `Quick test_prf_int;
          QCheck_alcotest.to_alcotest prop_prf_matches_reference;
          QCheck_alcotest.to_alcotest prop_prf_frame_reuse;
        ] );
      ( "known-answer",
        [
          Alcotest.test_case "arx forward" `Quick test_kat_arx;
          Alcotest.test_case "2EM blocks" `Quick test_kat_em;
          Alcotest.test_case "cbc-mac lengths" `Quick test_kat_mac;
          Alcotest.test_case "prf, drkey, epic" `Quick test_kat_derivations;
          Alcotest.test_case "opt router_update" `Quick test_kat_opt_router_update;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "in-place permutation" `Quick test_alloc_permutation;
          Alcotest.test_case "encrypt_into" `Quick test_alloc_encrypt_into;
          Alcotest.test_case "52-byte mac" `Quick test_alloc_mac;
          Alcotest.test_case "in-place key work" `Quick test_alloc_key_work;
        ] );
      ( "siphash",
        [
          Alcotest.test_case "reference vectors" `Quick test_siphash_reference_vectors;
          Alcotest.test_case "key sensitivity" `Quick test_siphash_key_sensitivity;
          Alcotest.test_case "hash32" `Quick test_siphash_hash32;
        ] );
    ]

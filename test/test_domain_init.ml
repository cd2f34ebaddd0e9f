(* First use of the shared lookup tables from two domains at once.

   The AES S-boxes and the CRC-32 table are module-level values that
   every domain reads. Built as [lazy] values, the first two domains
   to reach one raced on forcing it, and OCaml 5 raises
   [CamlinternalLazy.Undefined] in the loser. This suite is its own
   executable so that nothing has touched the tables before the races
   below: each case is the first use of its table in the process. *)

open Dip_crypto

let hex = Dip_stdext.Hex.decode

(* Run [f] on a spawned domain and on this one, released together. *)
let race f =
  let ready = Atomic.make 0 in
  let go () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    f ()
  in
  let d = Domain.spawn go in
  let here = go () in
  (here, Domain.join d)

let fips_key = "000102030405060708090a0b0c0d0e0f"
let fips_pt = "00112233445566778899aabbccddeeff"
let fips_ct = "69c4e0d86a7b0430d8cdb78070b4c55a"

let test_aes_encrypt () =
  let a, b =
    race (fun () ->
        Dip_stdext.Hex.encode (Aes128.encrypt_block (Aes128.expand_key (hex fips_key)) (hex fips_pt)))
  in
  Alcotest.(check string) "this domain" fips_ct a;
  Alcotest.(check string) "spawned domain" fips_ct b

let test_aes_decrypt () =
  let a, b =
    race (fun () ->
        Dip_stdext.Hex.encode (Aes128.decrypt_block (Aes128.expand_key (hex fips_key)) (hex fips_ct)))
  in
  Alcotest.(check string) "this domain" fips_pt a;
  Alcotest.(check string) "spawned domain" fips_pt b

let test_crc32 () =
  let a, b = race (fun () -> Dip_stdext.Crc32.digest "123456789") in
  Alcotest.(check int32) "this domain" 0xCBF43926l a;
  Alcotest.(check int32) "spawned domain" 0xCBF43926l b

let () =
  Alcotest.run "domain-init"
    [
      ( "first use from two domains",
        [
          Alcotest.test_case "aes128 encrypt (S-box)" `Quick test_aes_encrypt;
          Alcotest.test_case "aes128 decrypt (inverse S-box)" `Quick test_aes_decrypt;
          Alcotest.test_case "crc32 table" `Quick test_crc32;
        ] );
    ]

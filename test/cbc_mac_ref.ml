(* Reference crypto for the differential tests in test_crypto: the
   CBC-MAC and 2EM as first written, on boxed (hi, lo) int64 tuples
   and one fresh block per step. Slow and allocation-heavy, kept only
   as the oracle the in-place kernels in Dip_crypto must agree with,
   bit for bit. *)

module type CIPHER = sig
  type key

  val block_size : int
  val encrypt_block : key -> string -> string
end

(* The chunked CBC-MAC: length block first, then each message block
   zero-padded into a fresh chunk, XORed with the state byte by
   byte. *)
module Make (C : CIPHER) = struct
  let xor_into dst src =
    for i = 0 to Bytes.length dst - 1 do
      Bytes.set dst i (Char.chr (Char.code (Bytes.get dst i) lxor Char.code src.[i]))
    done

  let length_block n =
    let b = Bytes.make C.block_size '\000' in
    Bytes.set_int64_be b (C.block_size - 8) (Int64.of_int n);
    Bytes.unsafe_to_string b

  let mac k msg =
    let bs = C.block_size in
    let state = ref (C.encrypt_block k (length_block (String.length msg))) in
    let nblocks = (String.length msg + bs - 1) / bs in
    for i = 0 to nblocks - 1 do
      let chunk = Bytes.make bs '\000' in
      let len = min bs (String.length msg - (i * bs)) in
      Bytes.blit_string msg (i * bs) chunk 0 len;
      xor_into chunk !state;
      state := C.encrypt_block k (Bytes.unsafe_to_string chunk)
    done;
    !state
end

(* The ARX permutation, one tuple per round. *)
module Arx = struct
  let rotl x n = Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))
  let rotr x n = Int64.logor (Int64.shift_right_logical x n) (Int64.shift_left x (64 - n))

  let rc =
    [|
      0x243F6A8885A308D3L; 0x13198A2E03707344L; 0xA4093822299F31D0L;
      0x082EFA98EC4E6C89L; 0x452821E638D01377L; 0xBE5466CF34E90C6CL;
      0xC0AC29B7C97C50DDL; 0x3F84D5B5B5470917L; 0x9216D5D98979FB1BL;
      0xD1310BA698DFB5ACL; 0x2FFD72DBD01ADFB7L; 0xB8E1AFED6A267E96L;
    |]

  let round i (a, b) =
    let a = Int64.add (rotr a 8) b in
    let a = Int64.logxor a rc.(i) in
    let b = Int64.logxor (rotl b 3) a in
    (a, b)

  let forward blk =
    let rec go i blk = if i = 12 then blk else go (i + 1) (round i blk) in
    go 0 blk

  let of_string s = (String.get_int64_be s 0, String.get_int64_be s 8)

  let to_string (hi, lo) =
    let b = Bytes.create 16 in
    Bytes.set_int64_be b 0 hi;
    Bytes.set_int64_be b 8 lo;
    Bytes.unsafe_to_string b
end

(* 2EM over the tuple permutation: E(x) = P(P(x ⊕ k1) ⊕ k2) ⊕ k3. *)
module Em2 = struct
  type key = { k1 : int64 * int64; k2 : int64 * int64; k3 : int64 * int64 }

  let block_size = 16
  let xor (a1, a2) (b1, b2) = (Int64.logxor a1 b1, Int64.logxor a2 b2)

  let expand_key raw =
    let k1 = Arx.of_string raw in
    let k2 = Arx.forward (xor k1 (0x0101010101010101L, 0x0101010101010101L)) in
    let k3 = Arx.forward (xor k2 (0x0202020202020202L, 0x0202020202020202L)) in
    { k1; k2; k3 }

  let encrypt_block k block =
    let y = Arx.forward (xor (Arx.of_string block) k.k1) in
    let z = Arx.forward (xor y k.k2) in
    Arx.to_string (xor z k.k3)
end

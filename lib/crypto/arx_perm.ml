type block = int64 * int64

let rounds = 12

let rotl x n = Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))
let rotr x n = Int64.logor (Int64.shift_right_logical x n) (Int64.shift_left x (64 - n))

(* Round constants break the symmetry between rounds so that
   [forward] has no fixed structure an attacker could slide. They are
   the first digits of pi interpreted as 64-bit words. *)
let round_constants =
  [|
    0x243F6A8885A308D3L; 0x13198A2E03707344L; 0xA4093822299F31D0L;
    0x082EFA98EC4E6C89L; 0x452821E638D01377L; 0xBE5466CF34E90C6CL;
    0xC0AC29B7C97C50DDL; 0x3F84D5B5B5470917L; 0x9216D5D98979FB1BL;
    0xD1310BA698DFB5ACL; 0x2FFD72DBD01ADFB7L; 0xB8E1AFED6A267E96L;
  |]

(* One SPECK-like round per iteration: invertible because every step
   is. The lanes live in local refs initialised straight from the
   byte loads, which ocamlopt keeps unboxed in registers, so a whole
   permutation allocates nothing. *)
let forward_into b off =
  Block.check_into "Arx_perm" b off;
  let hi = ref (Bytes.get_int64_be b off) in
  let lo = ref (Bytes.get_int64_be b (off + 8)) in
  for i = 0 to rounds - 1 do
    let a = Int64.logxor (Int64.add (rotr !hi 8) !lo) (Array.unsafe_get round_constants i) in
    hi := a;
    lo := Int64.logxor (rotl !lo 3) a
  done;
  Bytes.set_int64_be b off !hi;
  Bytes.set_int64_be b (off + 8) !lo

let backward_into b off =
  Block.check_into "Arx_perm" b off;
  let hi = ref (Bytes.get_int64_be b off) in
  let lo = ref (Bytes.get_int64_be b (off + 8)) in
  for i = rounds - 1 downto 0 do
    let l = rotr (Int64.logxor !lo !hi) 3 in
    hi := rotl (Int64.sub (Int64.logxor !hi (Array.unsafe_get round_constants i)) l) 8;
    lo := l
  done;
  Bytes.set_int64_be b off !hi;
  Bytes.set_int64_be b (off + 8) !lo

let to_string (hi, lo) =
  let b = Bytes.create 16 in
  Bytes.set_int64_be b 0 hi;
  Bytes.set_int64_be b 8 lo;
  Bytes.unsafe_to_string b

let of_string s =
  if String.length s <> 16 then invalid_arg "Arx_perm.of_string: need 16 bytes";
  (String.get_int64_be s 0, String.get_int64_be s 8)

let via f blk =
  let b = Bytes.unsafe_of_string (to_string blk) in
  f b 0;
  of_string (Bytes.unsafe_to_string b)

let forward = via forward_into
let backward = via backward_into

let name = "2EM"
let block_size = 16
let key_size = 16
let passes = 1

(* The three 16-byte round keys back to back: k1 at 0, k2 at 16, k3
   at 32. *)
type key = Bytes.t

(* Round keys are separated by running the master key through the
   public permutation with distinct constants, so k1, k2, k3 are
   pairwise independent-looking: k2 = P(k1 ⊕ 0x01…), k3 = P(k2 ⊕ 0x02…).
   Every lane is written with a 64-bit store (the constants read the
   same in either byte order), so a rewrite calls no C. *)
let expand_key_into raw k =
  if Bytes.length raw <> key_size then
    invalid_arg "Even_mansour.expand_key_into: need a 16-byte key";
  let c1 = 0x0101010101010101L and c2 = 0x0202020202020202L in
  let h = Bytes.get_int64_ne raw 0 and l = Bytes.get_int64_ne raw 8 in
  Bytes.set_int64_ne k 0 h;
  Bytes.set_int64_ne k 8 l;
  Bytes.set_int64_ne k 16 (Int64.logxor h c1);
  Bytes.set_int64_ne k 24 (Int64.logxor l c1);
  Arx_perm.forward_into k 16;
  Bytes.set_int64_ne k 32 (Int64.logxor (Bytes.get_int64_ne k 16) c2);
  Bytes.set_int64_ne k 40 (Int64.logxor (Bytes.get_int64_ne k 24) c2);
  Arx_perm.forward_into k 32

let expand_key raw =
  if String.length raw <> key_size then
    invalid_arg "Even_mansour.expand_key: need a 16-byte key";
  let k = Bytes.create 48 in
  expand_key_into (Bytes.unsafe_of_string raw) k;
  k

let encrypt_into k b off =
  Block.check_into "Even_mansour" b off;
  Block.xor_into b off k 0;
  Arx_perm.forward_into b off;
  Block.xor_into b off k 16;
  Arx_perm.forward_into b off;
  Block.xor_into b off k 32

let decrypt_into k b off =
  Block.check_into "Even_mansour" b off;
  Block.xor_into b off k 32;
  Arx_perm.backward_into b off;
  Block.xor_into b off k 16;
  Arx_perm.backward_into b off;
  Block.xor_into b off k 0

let encrypt_block k block = Block.on_copy "Even_mansour" encrypt_into k block
let decrypt_block k block = Block.on_copy "Even_mansour" decrypt_into k block

let name = "2EM"
let block_size = 16
let key_size = 16
let passes = 1

(* The three 16-byte round keys back to back: k1 at 0, k2 at 16, k3
   at 32. *)
type key = Bytes.t

(* Round keys are separated by running the master key through the
   public permutation with distinct constants, so k1, k2, k3 are
   pairwise independent-looking: k2 = P(k1 ⊕ 0x01…), k3 = P(k2 ⊕ 0x02…). *)
let expand_key raw =
  if String.length raw <> key_size then
    invalid_arg "Even_mansour.expand_key: need a 16-byte key";
  let k = Bytes.create 48 in
  Bytes.blit_string raw 0 k 0 16;
  Bytes.fill k 16 16 '\001';
  Bytes.fill k 32 16 '\002';
  Block.xor_into k 16 k 0;
  Arx_perm.forward_into k 16;
  Block.xor_into k 32 k 16;
  Arx_perm.forward_into k 32;
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

let name = "AES-128"
let block_size = 16
let key_size = 16

(* On the modelled Tofino, the ten AES rounds do not fit in one
   pipeline traversal; the prototype would resubmit. We charge five
   passes (two rounds per traversal), matching the order of magnitude
   of published P4 AES implementations. *)
let passes = 5

(* GF(2^8) arithmetic with the AES reduction polynomial x^8+x^4+x^3+x+1. *)

let xtime b =
  let b = b lsl 1 in
  if b land 0x100 <> 0 then b lxor 0x11B else b

let gmul a b =
  let rec go a b acc =
    if b = 0 then acc
    else
      let acc = if b land 1 <> 0 then acc lxor a else acc in
      go (xtime a) (b lsr 1) acc
  in
  go a b 0

(* Multiplicative inverse by exhaustive search at table-build time;
   the table is built once so O(255) per entry is irrelevant. *)
let ginv a =
  if a = 0 then 0
  else
    let rec find x = if gmul a x = 1 then x else find (x + 1) in
    find 1

let rotl8 x n = ((x lsl n) lor (x lsr (8 - n))) land 0xFF

(* Both tables are built eagerly at module initialisation: a [lazy]
   table raises [CamlinternalLazy.Undefined] when two domains force it
   at once. *)
let sbox =
  Array.init 256 (fun x ->
      let b = ginv x in
      b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63)

let inv_sbox =
  let inv = Array.make 256 0 in
  Array.iteri (fun i v -> inv.(v) <- i) sbox;
  inv

(* The 11 round keys of 16 bytes, back to back. *)
type key = Bytes.t

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1B; 0x36 |]

let byte b i = Char.code (Bytes.get b i)
let set_byte b i v = Bytes.set b i (Char.unsafe_chr v)

(* AES-128 expands 4 key words into 44; word i is bytes [4i, 4i+4). *)
let expand_into raw w =
  if Bytes.length raw <> key_size then invalid_arg "Aes128.expand_into: need a 16-byte key";
  Bytes.blit raw 0 w 0 16;
  for i = 4 to 43 do
    let prev = 4 * (i - 1) in
    for j = 0 to 3 do
      let t =
        if i mod 4 <> 0 then byte w (prev + j)
        else
          (* RotWord then SubWord then Rcon. *)
          let s = sbox.(byte w (prev + ((j + 1) mod 4))) in
          if j = 0 then s lxor rcon.((i / 4) - 1) else s
      in
      set_byte w ((4 * i) + j) (byte w ((4 * (i - 4)) + j) lxor t)
    done
  done

let expand_key raw =
  if String.length raw <> key_size then
    invalid_arg "Aes128.expand_key: need a 16-byte key";
  let w = Bytes.create 176 in
  expand_into (Bytes.unsafe_of_string raw) w;
  w

(* The state is the 16 bytes of the block at [o], in input order: row
   r, column c is byte o + 4c + r. Every step works on it in place. *)

let add_round_key b o k r = Block.xor_into b o k (16 * r)

let sub_bytes box b o =
  for i = o to o + 15 do
    set_byte b i box.(byte b i)
  done

(* b.(i) <- b.(j) <- b.(k) <- b.(l) <- b.(i): one row rotation. *)
let cycle b i j k l =
  let t = Bytes.get b i in
  Bytes.set b i (Bytes.get b j);
  Bytes.set b j (Bytes.get b k);
  Bytes.set b k (Bytes.get b l);
  Bytes.set b l t

let swap b i j =
  let t = Bytes.get b i in
  Bytes.set b i (Bytes.get b j);
  Bytes.set b j t

(* Row r moves r columns left; row 2 is two swaps. *)
let shift_rows b o =
  cycle b (o + 1) (o + 5) (o + 9) (o + 13);
  swap b (o + 2) (o + 10);
  swap b (o + 6) (o + 14);
  cycle b (o + 15) (o + 11) (o + 7) (o + 3)

let inv_shift_rows b o =
  cycle b (o + 13) (o + 9) (o + 5) (o + 1);
  swap b (o + 2) (o + 10);
  swap b (o + 6) (o + 14);
  cycle b (o + 3) (o + 7) (o + 11) (o + 15)

let mix_columns b o =
  for c = 0 to 3 do
    let i = o + (4 * c) in
    let a0 = byte b i and a1 = byte b (i + 1) in
    let a2 = byte b (i + 2) and a3 = byte b (i + 3) in
    let d0 = xtime a0 and d1 = xtime a1 and d2 = xtime a2 and d3 = xtime a3 in
    set_byte b i (d0 lxor d1 lxor a1 lxor a2 lxor a3);
    set_byte b (i + 1) (a0 lxor d1 lxor d2 lxor a2 lxor a3);
    set_byte b (i + 2) (a0 lxor a1 lxor d2 lxor d3 lxor a3);
    set_byte b (i + 3) (d0 lxor a0 lxor a1 lxor a2 lxor d3)
  done

let inv_mix_columns b o =
  for c = 0 to 3 do
    let i = o + (4 * c) in
    let a0 = byte b i and a1 = byte b (i + 1) in
    let a2 = byte b (i + 2) and a3 = byte b (i + 3) in
    set_byte b i (gmul a0 14 lxor gmul a1 11 lxor gmul a2 13 lxor gmul a3 9);
    set_byte b (i + 1) (gmul a0 9 lxor gmul a1 14 lxor gmul a2 11 lxor gmul a3 13);
    set_byte b (i + 2) (gmul a0 13 lxor gmul a1 9 lxor gmul a2 14 lxor gmul a3 11);
    set_byte b (i + 3) (gmul a0 11 lxor gmul a1 13 lxor gmul a2 9 lxor gmul a3 14)
  done

let encrypt_into k b o =
  Block.check_into "Aes128" b o;
  add_round_key b o k 0;
  for r = 1 to 9 do
    sub_bytes sbox b o;
    shift_rows b o;
    mix_columns b o;
    add_round_key b o k r
  done;
  sub_bytes sbox b o;
  shift_rows b o;
  add_round_key b o k 10

let decrypt_into k b o =
  Block.check_into "Aes128" b o;
  add_round_key b o k 10;
  inv_shift_rows b o;
  sub_bytes inv_sbox b o;
  for r = 9 downto 1 do
    add_round_key b o k r;
    inv_mix_columns b o;
    inv_shift_rows b o;
    sub_bytes inv_sbox b o
  done;
  add_round_key b o k 0

let encrypt_block k block = Block.on_copy "Aes128" encrypt_into k block
let decrypt_block k block = Block.on_copy "Aes128" decrypt_into k block

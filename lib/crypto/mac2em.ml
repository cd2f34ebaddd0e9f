type key = Even_mansour.key

let expand_key = Even_mansour.expand_key

let rotl x n = Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))
let rotr x n = Int64.logor (Int64.shift_right_logical x n) (Int64.shift_left x (64 - n))

(* The top [n] bytes of a 64-bit lane: what a partial block keeps of
   the word it reads. *)
let keep n = if n >= 8 then -1L else if n <= 0 then 0L else Int64.shift_left (-1L) (64 - (8 * n))

(* Length-prefixed CBC-MAC over 2EM, fused into one body. With
   [st_off < 0] the state starts as the length block of [total] bytes
   (a 64-bit big-endian byte count, zero padded in front), enciphered
   as block 0; otherwise it is the 16 bytes of [st] at [st_off], a
   state that block 0 already left. Each 16-byte block of the [len]
   bytes of [src] at [off], the last one zero padded, is then XORed
   into it and the state enciphered as P(P(x xor k1) xor k2) xor k3.
   A partial last block is read as two masked words when [src] holds
   16 bytes from its start, else byte by byte. The six round-key
   lanes and the two state lanes are unboxed locals for the whole
   message, and the ARX rounds of both permutations are written out
   here: Arx_perm's rounds run on a block in memory, so calling them,
   inlined or not, would store and load the state per permutation
   (and a call ocamlopt does not inline boxes an int64 passed to it).
   The tag is written only after the last message byte is read, so
   [src], [st] and [dst] may overlap. *)
let cbc k st st_off ~total src ~off ~len dst ~dst_off =
  let k = (k : key :> Bytes.t) and rc = Arx_perm.round_constants in
  let k1h = Bytes.get_int64_be k 0 and k1l = Bytes.get_int64_be k 8 in
  let k2h = Bytes.get_int64_be k 16 and k2l = Bytes.get_int64_be k 24 in
  let k3h = Bytes.get_int64_be k 32 and k3l = Bytes.get_int64_be k 40 in
  let hi = ref 0L and lo = ref (Int64.of_int total) in
  let first =
    if st_off < 0 then 0
    else begin
      hi := Bytes.get_int64_be st st_off;
      lo := Bytes.get_int64_be st (st_off + 8);
      1
    end
  in
  let stop = off + len in
  for blk = first to (len + 15) / 16 do
    (* Block 0 is the length block; block [blk > 0] is XORed in. *)
    let p = off + (16 * (blk - 1)) in
    let r = stop - p in
    if blk = 0 then ()
    else if r >= 16 then begin
      hi := Int64.logxor !hi (Bytes.get_int64_be src p);
      lo := Int64.logxor !lo (Bytes.get_int64_be src (p + 8))
    end
    else if p + 16 <= Bytes.length src then begin
      hi := Int64.logxor !hi (Int64.logand (Bytes.get_int64_be src p) (keep r));
      lo := Int64.logxor !lo (Int64.logand (Bytes.get_int64_be src (p + 8)) (keep (r - 8)))
    end
    else
      for i = 0 to r - 1 do
        let b = Int64.of_int (Bytes.get_uint8 src (p + i)) in
        if i < 8 then hi := Int64.logxor !hi (Int64.shift_left b (56 - (8 * i)))
        else lo := Int64.logxor !lo (Int64.shift_left b (120 - (8 * i)))
      done;
    hi := Int64.logxor !hi k1h;
    lo := Int64.logxor !lo k1l;
    for p = 0 to 1 do
      if p = 1 then begin
        hi := Int64.logxor !hi k2h;
        lo := Int64.logxor !lo k2l
      end;
      for i = 0 to 11 do
        let a = Int64.logxor (Int64.add (rotr !hi 8) !lo) (Array.unsafe_get rc i) in
        hi := a;
        lo := Int64.logxor (rotl !lo 3) a
      done
    done;
    hi := Int64.logxor !hi k3h;
    lo := Int64.logxor !lo k3l
  done;
  Bytes.set_int64_be dst dst_off !hi;
  Bytes.set_int64_be dst (dst_off + 8) !lo

let check who b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg ("Mac2em." ^ who ^ ": out of bounds")

let mac_into k src ~off ~len dst ~dst_off =
  check "mac_into" src off len;
  check "mac_into" dst dst_off 16;
  cbc k src (-1) ~total:len src ~off ~len dst ~dst_off

let midstate_into k ~len dst ~dst_off =
  check "midstate_into" dst dst_off 16;
  if len < 0 then invalid_arg "Mac2em.midstate_into: negative length";
  cbc k dst (-1) ~total:len dst ~off:0 ~len:0 dst ~dst_off

let resume_into k st ~st_off src ~off ~len dst ~dst_off =
  check "resume_into" st st_off 16;
  check "resume_into" src off len;
  check "resume_into" dst dst_off 16;
  cbc k st st_off ~total:0 src ~off ~len dst ~dst_off

let mac k msg =
  let tag = Bytes.create 16 in
  mac_into k (Bytes.unsafe_of_string msg) ~off:0 ~len:(String.length msg) tag ~dst_off:0;
  Bytes.unsafe_to_string tag

let mac_truncated k n msg =
  if n < 1 || n > 16 then invalid_arg "Mac2em.mac_truncated: bad tag length";
  String.sub (mac k msg) 0 n

let tags_equal a b =
  String.length a = String.length b
  &&
  (* Constant-time fold over all bytes; no early exit. *)
  let diff = ref 0 in
  String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code b.[i])) a;
  !diff = 0

let verify k ~tag msg =
  let n = String.length tag in
  n >= 1 && n <= 16 && tags_equal tag (String.sub (mac k msg) 0 n)

module Make (C : Block.S) = struct
  type key = C.key

  let expand_key = C.expand_key

  (* Each domain's own block-sized state: keys stay shareable between
     domains, and a MAC allocates nothing. *)
  let state = Domain.DLS.new_key (fun () -> Bytes.create C.block_size)

  (* The state is enciphered in place and copied out as the tag. It
     starts as the length block: a 64-bit big-endian byte count, zero
     padded in front to a full block. Prefixing (not suffixing) the
     length makes the encoding prefix-free, which is what CBC-MAC
     needs for variable lengths. Each message block is XORed into the
     state a 64-bit lane at a time where it lies (the message is only
     read); the final partial block byte by byte, which zero-pads it.
     The tag is written only once the message is read, so the two
     ranges may overlap. *)
  let mac_into k src ~off ~len dst ~dst_off =
    let bs = C.block_size and st = Domain.DLS.get state in
    if off < 0 || len < 0 || off > Bytes.length src - len then
      invalid_arg "Cbc_mac.mac_into: source out of bounds";
    if dst_off < 0 || dst_off > Bytes.length dst - bs then
      invalid_arg "Cbc_mac.mac_into: tag out of bounds";
    Bytes.fill st 0 bs '\000';
    Bytes.set_int64_be st (bs - 8) (Int64.of_int len);
    C.encrypt_into k st 0;
    let full = len / bs in
    for blk = 0 to full - 1 do
      Block.xor_into st 0 src (off + (blk * bs));
      C.encrypt_into k st 0
    done;
    let pos = full * bs in
    if pos < len then begin
      for i = 0 to len - pos - 1 do
        Bytes.unsafe_set st i
          (Char.unsafe_chr
             (Char.code (Bytes.unsafe_get st i)
             lxor Char.code (Bytes.unsafe_get src (off + pos + i))))
      done;
      C.encrypt_into k st 0
    end;
    Bytes.blit st 0 dst dst_off bs

  let mac k msg =
    let tag = Bytes.create C.block_size in
    mac_into k (Bytes.unsafe_of_string msg) ~off:0 ~len:(String.length msg) tag ~dst_off:0;
    Bytes.unsafe_to_string tag
end

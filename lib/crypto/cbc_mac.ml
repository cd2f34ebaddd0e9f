module Make (C : Block.S) = struct
  type key = C.key

  let expand_key = C.expand_key

  (* One block-sized state, owned by this call, is enciphered in place
     and returned as the tag. It starts as the length block: a 64-bit
     big-endian byte count, zero padded in front to a full block.
     Prefixing (not suffixing) the length makes the encoding
     prefix-free, which is what CBC-MAC needs for variable lengths.
     Each message block is XORed into the state a 64-bit lane at a
     time (the message is only read); the final partial block byte by
     byte, which zero-pads it. *)
  let mac k msg =
    let bs = C.block_size and n = String.length msg in
    let st = Bytes.make bs '\000' in
    Bytes.set_int64_be st (bs - 8) (Int64.of_int n);
    C.encrypt_into k st 0;
    let full = n / bs in
    for blk = 0 to full - 1 do
      Block.xor_into st 0 (Bytes.unsafe_of_string msg) (blk * bs);
      C.encrypt_into k st 0
    done;
    let pos = full * bs in
    if pos < n then begin
      for i = 0 to n - pos - 1 do
        Bytes.set st i (Char.unsafe_chr (Char.code (Bytes.get st i) lxor Char.code msg.[pos + i]))
      done;
      C.encrypt_into k st 0
    end;
    Bytes.unsafe_to_string st

  let mac_into k src ~off ~len dst ~dst_off =
    Bytes.blit_string (mac k (Bytes.sub_string src off len)) 0 dst dst_off C.block_size
end

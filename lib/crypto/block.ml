module type S = sig
  val name : string
  val block_size : int
  val key_size : int
  val passes : int

  type key

  val expand_key : string -> key
  val encrypt_into : key -> Bytes.t -> int -> unit
  val encrypt_block : key -> string -> string
  val decrypt_block : key -> string -> string
end

let check_into who b off =
  if off < 0 || off > Bytes.length b - 16 then invalid_arg (who ^ ": block out of bounds")

let xor_into b off k koff =
  Bytes.set_int64_ne b off (Int64.logxor (Bytes.get_int64_ne b off) (Bytes.get_int64_ne k koff));
  Bytes.set_int64_ne b (off + 8)
    (Int64.logxor (Bytes.get_int64_ne b (off + 8)) (Bytes.get_int64_ne k (koff + 8)))

let on_copy who f k block =
  if String.length block <> 16 then invalid_arg (who ^ ": block must be 16 bytes");
  let b = Bytes.of_string block in
  f k b 0;
  Bytes.unsafe_to_string b

module Bitbuf = Dip_bitbuf.Bitbuf
module Field = Dip_bitbuf.Field

let size_bits ~hops =
  if hops < 1 then invalid_arg "Epic.Header.size_bits: need at least one hop";
  192 + (32 * hops)

let size_bytes ~hops = size_bits ~hops / 8

let at base off len = Field.v ~off_bits:((8 * base) + off) ~len_bits:len

let set_src buf ~base v =
  Bitbuf.set_uint buf (at base 0 32) (Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL)

let get_timestamp buf ~base = Int64.to_int32 (Bitbuf.get_uint buf (at base 32 32))
let set_timestamp buf ~base v =
  Bitbuf.set_uint buf (at base 32 32) (Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL)

let get_payload_hash buf ~base = Bitbuf.get_field buf (at base 64 128)
let set_payload_hash buf ~base v = Bitbuf.set_field buf (at base 64 128) v

let hvf_field base i =
  if i < 1 then invalid_arg "Epic.Header.hvf: hops are 1-based";
  at base (192 + (32 * (i - 1))) 32

let get_hvf buf ~base i = Int64.to_int32 (Bitbuf.get_uint buf (hvf_field base i))
let set_hvf buf ~base i v =
  Bitbuf.set_uint buf (hvf_field base i) (Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL)

type t = { off_bits : int; len_bits : int }

let v ~off_bits ~len_bits =
  if off_bits < 0 then invalid_arg "Field.v: negative offset";
  if len_bits <= 0 then invalid_arg "Field.v: non-positive length";
  { off_bits; len_bits }

let last_bit f = f.off_bits + f.len_bits

let byte_span f =
  let first = f.off_bits / 8 in
  let last = (last_bit f + 7) / 8 in
  (first, last - first)

let is_byte_aligned f = f.off_bits mod 8 = 0 && f.len_bits mod 8 = 0

let overlaps a b = a.off_bits < last_bit b && b.off_bits < last_bit a

let contains outer inner =
  outer.off_bits <= inner.off_bits && last_bit inner <= last_bit outer

let equal a b = a.off_bits = b.off_bits && a.len_bits = b.len_bits

let pp fmt f = Format.fprintf fmt "(loc:%d, len:%d)" f.off_bits f.len_bits

type key = Mac2em.key

let key_of_string s =
  if String.length s <> 16 then invalid_arg "Prf.key_of_string: need 16 bytes";
  Mac2em.expand_key s

(* The label is framed with its own length so that (label, input)
   pairs cannot collide across different splits of the same bytes:
   [framed label n] is the 32-bit label length, the label, and [n]
   bytes left for the input, in one allocation. *)
let framed label n =
  let l = String.length label in
  let b = Bytes.create (4 + l + n) in
  Bytes.set_int32_be b 0 (Int32.of_int l);
  Bytes.blit_string label 0 b 4 l;
  b

let derive k ~label input =
  let n = String.length input in
  let b = framed label n in
  Bytes.blit_string input 0 b (Bytes.length b - n) n;
  Mac2em.mac k (Bytes.unsafe_to_string b)

let derive_int k ~label v =
  let b = framed label 8 in
  Bytes.set_int64_be b (Bytes.length b - 8) v;
  Mac2em.mac k (Bytes.unsafe_to_string b)

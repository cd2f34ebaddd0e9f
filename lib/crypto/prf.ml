type key = Mac2em.key

let key_of_string s =
  if String.length s <> 16 then invalid_arg "Prf.key_of_string: need 16 bytes";
  Mac2em.expand_key s

(* The label is framed with its own length so that (label, input)
   pairs cannot collide across different splits of the same bytes:
   the MAC runs over the 32-bit label length, the label and the
   input. [framed label n] is that buffer with the label written and
   [n] bytes left for the input, zero padded to whole blocks so that
   the MAC reads its tail as words. *)
let framed label n =
  let l = String.length label in
  let b = Bytes.make ((4 + l + n + 15) / 16 * 16) '\000' in
  Bytes.set_int32_be b 0 (Int32.of_int l);
  Bytes.blit_string label 0 b 4 l;
  b

(* A frame adds the MAC's state after the length block, which depends
   only on the key and the framed length. *)
type frame = { key : key; mid : Bytes.t; buf : Bytes.t; at : int; len : int }

let frame key ~label ~input_len =
  if input_len < 0 then invalid_arg "Prf.frame: negative input length";
  let at = 4 + String.length label in
  let len = at + input_len in
  let mid = Bytes.create 16 in
  Mac2em.midstate_into key ~len mid ~dst_off:0;
  { key; mid; buf = framed label input_len; at; len }

let derive_into f src ~off dst ~dst_off =
  Bytes.blit src off f.buf f.at (f.len - f.at);
  Mac2em.resume_into f.key f.mid ~st_off:0 f.buf ~off:0 ~len:f.len dst ~dst_off

(* A one-off derivation MACs its framed buffer from the length block:
   a frame would encipher that block too, and allocate more. *)
let mac_framed k b ~len =
  let tag = Bytes.create 16 in
  Mac2em.mac_into k b ~off:0 ~len tag ~dst_off:0;
  Bytes.unsafe_to_string tag

let derive k ~label input =
  let n = String.length input and at = 4 + String.length label in
  let b = framed label n in
  Bytes.blit_string input 0 b at n;
  mac_framed k b ~len:(at + n)

let derive_int k ~label v =
  let at = 4 + String.length label in
  let b = framed label 8 in
  Bytes.set_int64_be b at v;
  mac_framed k b ~len:(at + 8)

module Bitbuf = Dip_bitbuf.Bitbuf

type t = {
  next_header : int;
  fn_num : int;
  hop_limit : int;
  parallel : bool;
  fn_loc_len : int;
}

let basic_size = 6
let max_fn_loc_len = 0x3FF

let header_length t = basic_size + (t.fn_num * Fn.size) + t.fn_loc_len
let fn_offset i = basic_size + (i * Fn.size)
let locations_offset t = basic_size + (t.fn_num * Fn.size)
let payload_offset = header_length

let check t =
  let byte name v =
    if v < 0 || v > 255 then invalid_arg ("Dip.Header: " ^ name ^ " out of range")
  in
  byte "next_header" t.next_header;
  byte "fn_num" t.fn_num;
  byte "hop_limit" t.hop_limit;
  if t.fn_loc_len < 0 || t.fn_loc_len > max_fn_loc_len then
    invalid_arg "Dip.Header: fn_loc_len exceeds 10 bits"

(* Packet parameter: bit 0 (LSB) = parallel flag, bits 1-10 =
   FN-locations length, bits 11-15 reserved. *)
let param_word t =
  (if t.parallel then 1 else 0) lor (t.fn_loc_len lsl 1)

let encode t buf =
  check t;
  if Bitbuf.length buf < basic_size then
    invalid_arg "Dip.Header.encode: buffer too small";
  Bitbuf.set_uint8 buf 0 t.next_header;
  Bitbuf.set_uint8 buf 1 t.fn_num;
  Bitbuf.set_uint8 buf 2 t.hop_limit;
  Bitbuf.set_uint16 buf 3 (param_word t);
  Bitbuf.set_uint8 buf 5 0

let wire_fn_num buf = Bitbuf.get_uint8 buf 1
let wire_fn_loc_len buf = (Bitbuf.get_uint16 buf 3 lsr 1) land max_fn_loc_len
let wire_locations_offset buf = fn_offset (wire_fn_num buf)
let announced_length buf = wire_locations_offset buf + wire_fn_loc_len buf

let decode buf =
  if Bitbuf.length buf < basic_size then Error "truncated basic header"
  else
    let param = Bitbuf.get_uint16 buf 3 in
    let t =
      {
        next_header = Bitbuf.get_uint8 buf 0;
        fn_num = Bitbuf.get_uint8 buf 1;
        hop_limit = Bitbuf.get_uint8 buf 2;
        parallel = param land 1 = 1;
        fn_loc_len = (param lsr 1) land max_fn_loc_len;
      }
    in
    if header_length t > Bitbuf.length buf then
      Error "header exceeds packet bounds"
    else Ok t

let decrement_hop_limit buf =
  let hl = Bitbuf.get_uint8 buf 2 in
  if hl <= 1 then false
  else begin
    Bitbuf.set_uint8 buf 2 (hl - 1);
    true
  end

let pp fmt t =
  Format.fprintf fmt
    "@[<h>DIP{next:%d fns:%d hop:%d par:%b loc_len:%dB hdr:%dB}@]"
    t.next_header t.fn_num t.hop_limit t.parallel t.fn_loc_len
    (header_length t)

module Bitbuf = Dip_bitbuf.Bitbuf
module Field = Dip_bitbuf.Field

type flag = No_congestion | Congestion | Attack

let flag_to_int = function No_congestion -> 0 | Congestion -> 1 | Attack -> 2

let flag_of_int = function
  | 0 -> Some No_congestion
  | 1 -> Some Congestion
  | 2 -> Some Attack
  | _ -> None

let size_bits = 168
let size_bytes = size_bits / 8

let at base off len = Field.v ~off_bits:((8 * base) + off) ~len_bits:len

let get_sender buf ~base = Int64.to_int32 (Bitbuf.get_uint buf (at base 0 32))
let set_sender buf ~base v =
  Bitbuf.set_uint buf (at base 0 32) (Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL)

let get_rate buf ~base = Int64.to_float (Bitbuf.get_uint buf (at base 32 32))
let set_rate buf ~base v =
  let clamped = Float.max 0.0 (Float.min 4.294967295e9 v) in
  Bitbuf.set_uint buf (at base 32 32) (Int64.of_float clamped)

let get_flag buf ~base =
  flag_of_int (Int64.to_int (Bitbuf.get_uint buf (at base 64 8)))

let set_flag buf ~base f =
  Bitbuf.set_uint buf (at base 64 8) (Int64.of_int (flag_to_int f))

let get_timestamp buf ~base = Int64.to_int32 (Bitbuf.get_uint buf (at base 72 32))
let set_timestamp buf ~base v =
  Bitbuf.set_uint buf (at base 72 32) (Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL)

(* The MAC covers bytes [0, 13) of the region (sender id ∥ rate ∥
   flag ∥ timestamp) and its first 8 bytes fill bytes [13, 21). *)
let covered_bytes = 13
let mac_off = 13

type key = { frame : Dip_crypto.Prf.frame; tag : Bytes.t }

let key secret =
  {
    frame =
      Dip_crypto.Prf.frame secret ~label:"netfence-feedback" ~input_len:covered_bytes;
    tag = Bytes.create 16;
  }

(* The tag, derived in place from the frame's stored midstate into
   [key.tag]. *)
let feedback_mac key buf ~base =
  if base < 0 || base + size_bytes > Bitbuf.length buf then
    invalid_arg "Netfence.Header: region out of bounds";
  Dip_crypto.Prf.derive_into key.frame (Bitbuf.to_bytes buf) ~off:base key.tag
    ~dst_off:0

let stamp ~key buf ~base =
  feedback_mac key buf ~base;
  Bytes.blit key.tag 0 (Bitbuf.to_bytes buf) (base + mac_off) 8

let verify ~key buf ~base =
  feedback_mac key buf ~base;
  Int64.equal
    (Bytes.get_int64_be (Bitbuf.to_bytes buf) (base + mac_off))
    (Bytes.get_int64_be key.tag 0)

let init buf ~base ~sender ~rate ~timestamp =
  set_sender buf ~base sender;
  set_rate buf ~base rate;
  set_flag buf ~base No_congestion;
  set_timestamp buf ~base timestamp;
  Bytes.fill (Bitbuf.to_bytes buf) (base + mac_off) 8 '\000'

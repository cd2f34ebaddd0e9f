(* Reference router-side key work for the differential properties of
   test_opt and test_epic: F_parm with F_MAC and F_mark, and F_hvf, as
   first written. Each derivation frames its input in a fresh string
   (32-bit label length, label, input) and MACs it from the length
   block; each hop expands fresh key schedules and MACs copies of its
   spans. The MACs are cbc_mac_ref.ml's, so none of this shares code
   with the in-place path the engine runs. Slow and allocation-heavy,
   kept only as the oracle. *)

module Ref2em = Cbc_mac_ref.Make (Cbc_mac_ref.Em2)
module RefAes = Cbc_mac_ref.Make (Dip_crypto.Aes128)

let mac (alg : Dip_opt.Protocol.alg) raw msg =
  match alg with
  | EM2 -> Ref2em.mac (Cbc_mac_ref.Em2.expand_key raw) msg
  | AES -> RefAes.mac (Dip_crypto.Aes128.expand_key raw) msg

(* The PRF under a router's raw 16-byte secret: always 2EM. *)
let derive secret ~label input =
  let b = Buffer.create 32 in
  Buffer.add_int32_be b (Int32.of_int (String.length label));
  Buffer.add_string b label;
  Buffer.add_string b input;
  mac EM2 secret (Buffer.contents b)

(* F_parm, F_MAC and F_mark on the OPT region at [base] of [b]: the
   session key from the session id's 8 bytes, hop [hop]'s OPV over
   bytes [0,52), then the PVF (bytes [36,52)) folded. *)
let opt_hop alg secret b ~base ~hop =
  let key = derive secret ~label:"opt-session" (Bytes.sub_string b (base + 24) 8) in
  let opv = mac alg key (Bytes.sub_string b base 52) in
  Bytes.blit_string opv 0 b (base + 52 + (16 * (hop - 1))) 16;
  Bytes.blit_string (mac alg key (Bytes.sub_string b (base + 36) 16)) 0 b (base + 36) 16

(* F_hvf on the EPIC region at [base] of [b]: the hop key from source
   ∥ timestamp; whether hop [hop]'s HVF is the first 32 bits of the
   origin's MAC, and if so the HVF rewritten in verified form, the
   MAC of "fwd" ∥ HVF. *)
let epic_hop secret b ~base ~hop =
  let key = derive secret ~label:"epic-hop" (Bytes.sub_string b base 8) in
  let hvf m = String.sub (mac EM2 key m) 0 4 in
  let at = base + 24 + (4 * (hop - 1)) in
  let carried = Bytes.sub_string b at 4 in
  String.equal (hvf (Bytes.sub_string b base 24)) carried
  && begin
    Bytes.blit_string (hvf ("fwd" ^ carried)) 0 b at 4;
    true
  end

(* NetFence's feedback tag as Netfence.Header first derived it: a
   one-off Prf.derive per packet over the 13 covered bytes (sender,
   rate, flag, timestamp) of the region at [base], its first 8
   bytes. *)
let netfence_tag key b ~base =
  String.sub
    (Dip_crypto.Prf.derive key ~label:"netfence-feedback" (Bytes.sub_string b base 13))
    0 8

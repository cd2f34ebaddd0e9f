module Bitbuf = Dip_bitbuf.Bitbuf
module Mac2em = Dip_crypto.Mac2em
module Prf = Dip_crypto.Prf

let label = "epic-hop"

let hop_frame secret = Prf.frame secret ~label ~input_len:8

let derive_key secret ~src ~timestamp =
  let b = Bytes.create 8 in
  Bytes.set_int32_be b 0 src;
  Bytes.set_int32_be b 4 timestamp;
  Prf.derive secret ~label (Bytes.unsafe_to_string b)

(* Both MACs of a hop run under one expanded key [k] and leave their
   tag in [tmp], a 16-byte buffer; an HVF is the tag's first 32 bits.
   The origin MAC reads bits [0,192) straight from the packet, the
   verified form's the 7 bytes "fwd" ∥ HVF from [tmp]. *)
let origin_into k b ~base tmp = Mac2em.mac_into k b ~off:base ~len:24 tmp ~dst_off:0

let verified_into k tmp =
  Bytes.blit_string "fwd" 0 tmp 0 3;
  Mac2em.mac_into k tmp ~off:0 ~len:7 tmp ~dst_off:0

let hvf_of_origin k buf ~base tmp =
  origin_into k (Bitbuf.to_bytes buf) ~base tmp;
  Bytes.get_int32_be tmp 0

let verified_form k hvf tmp =
  Bytes.set_int32_be tmp 3 hvf;
  verified_into k tmp;
  Bytes.get_int32_be tmp 0

let source_init buf ~base ~src ~timestamp ~hop_keys ~payload =
  Header.set_src buf ~base src;
  Header.set_timestamp buf ~base timestamp;
  Header.set_payload_hash buf ~base (Dip_opt.Protocol.hash_payload payload);
  let tmp = Bytes.create 16 in
  List.iteri
    (fun i key ->
      Header.set_hvf buf ~base (i + 1)
        (hvf_of_origin (Mac2em.expand_key key) buf ~base tmp))
    hop_keys

type router_verdict = Forwarded | Rejected

let router_check k tmp buf ~base ~hop =
  if hop < 1 then invalid_arg "Epic.Protocol.router_check: hops are 1-based";
  let b = Bitbuf.to_bytes buf and at = base + 24 + (4 * (hop - 1)) in
  let carried = Bytes.get_int32_be b at in
  origin_into k b ~base tmp;
  if Int32.equal (Bytes.get_int32_be tmp 0) carried then begin
    Bytes.set_int32_be tmp 3 carried;
    verified_into k tmp;
    Bytes.set_int32_be b at (Bytes.get_int32_be tmp 0);
    Forwarded
  end
  else Rejected

let verify_delivery buf ~base ~hop_keys ~payload =
  let payload_ok =
    match payload with
    | None -> true
    | Some p ->
        String.equal
          (Header.get_payload_hash buf ~base)
          (Dip_opt.Protocol.hash_payload p)
  in
  if not payload_ok then Error 0
  else
    let tmp = Bytes.create 16 in
    let rec go i = function
      | [] -> Ok ()
      | key :: rest ->
          let k = Mac2em.expand_key key in
          let expected = verified_form k (hvf_of_origin k buf ~base tmp) tmp in
          if Int32.equal expected (Header.get_hvf buf ~base i) then
            go (i + 1) rest
          else Error i
    in
    go 1 hop_keys

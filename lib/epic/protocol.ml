module Bitbuf = Dip_bitbuf.Bitbuf
module Mac2em = Dip_crypto.Mac2em

let derive_key secret ~src ~timestamp =
  let b = Bytes.create 8 in
  Bytes.set_int32_be b 0 src;
  Bytes.set_int32_be b 4 timestamp;
  Dip_opt.Drkey.derive_for secret ~label:"epic-hop" (Bytes.unsafe_to_string b)

(* Both MACs of a hop run under one expanded key [k] and leave their
   tag in [tmp], a 16-byte buffer; an HVF is the tag's first 32 bits.
   The origin MAC reads bits [0,192) straight from the packet. *)
let trunc32 k src ~off ~len tmp =
  Mac2em.mac_into k src ~off ~len tmp ~dst_off:0;
  Bytes.get_int32_be tmp 0

let hvf_of_origin k buf ~base tmp = trunc32 k (Bitbuf.to_bytes buf) ~off:base ~len:24 tmp

let verified_form k hvf tmp =
  Bytes.blit_string "fwd" 0 tmp 0 3;
  Bytes.set_int32_be tmp 3 hvf;
  trunc32 k tmp ~off:0 ~len:7 tmp

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

let router_check buf ~base ~hop ~key =
  let k = Mac2em.expand_key key and tmp = Bytes.create 16 in
  let expected = hvf_of_origin k buf ~base tmp in
  let carried = Header.get_hvf buf ~base hop in
  if Int32.equal expected carried then begin
    Header.set_hvf buf ~base hop (verified_form k carried tmp);
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

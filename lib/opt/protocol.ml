module Bitbuf = Dip_bitbuf.Bitbuf
module Mac2em = Dip_crypto.Mac2em
module MacAes = Dip_crypto.Cbc_mac.Make (Dip_crypto.Aes128)

type alg = EM2 | AES
type key = Em2 of Mac2em.key | Aes of MacAes.key

let expand ?(alg = EM2) raw =
  match alg with
  | EM2 -> Em2 (Mac2em.expand_key raw)
  | AES -> Aes (MacAes.expand_key raw)

let expand_into raw = function
  | Em2 k -> Dip_crypto.Even_mansour.expand_key_into raw k
  | Aes k -> Dip_crypto.Aes128.expand_into raw k

let mac_into key src ~off ~len dst ~dst_off =
  match key with
  | Em2 k -> Mac2em.mac_into k src ~off ~len dst ~dst_off
  | Aes k -> MacAes.mac_into k src ~off ~len dst ~dst_off

let mac key msg =
  let tag = Bytes.create 16 in
  mac_into key (Bytes.unsafe_of_string msg) ~off:0 ~len:(String.length msg) tag ~dst_off:0;
  Bytes.unsafe_to_string tag

(* A fixed public key turns the MAC into an unkeyed compression
   function standing in for a hash; see DESIGN.md substitutions. *)
let hash_key = expand "opt-data-hash-k0"

let hash_payload payload = mac hash_key payload

let source_init ?alg buf ~base ~hops ~session_id ~timestamp ~dest_key ~payload =
  Header.set_data_hash buf ~base (hash_payload payload);
  (* Clear the reserved upper half of the session-id field, then set
     the id itself. *)
  Bitbuf.set_field buf
    (Dip_bitbuf.Field.v ~off_bits:((8 * base) + 128) ~len_bits:64)
    (String.make 8 '\000');
  Header.set_session_id buf ~base session_id;
  Header.set_timestamp buf ~base timestamp;
  Header.set_pvf buf ~base (mac (expand ?alg dest_key) (Header.get_data_hash buf ~base));
  for i = 1 to hops do
    Header.set_opv buf ~base i (String.make 16 '\000')
  done

(* Both router steps read their input from the packet and write the
   tag back into it: no span copy, no tag string. F_MAC reads bytes
   [0,52) of the region, OPV [hop] is bytes [36 + 16 hop, +16) and
   the PVF bytes [36,52). *)
let mac_update buf ~base ~hop ~key =
  if hop < 1 then invalid_arg "Opt.Protocol.mac_update: hops are 1-based";
  let b = Bitbuf.to_bytes buf in
  mac_into key b ~off:base ~len:52 b ~dst_off:(base + 36 + (16 * hop))

let mark_update buf ~base ~key =
  let b = Bitbuf.to_bytes buf in
  mac_into key b ~off:(base + 36) ~len:16 b ~dst_off:(base + 36)

let router_update ?alg buf ~base ~hop ~key =
  let key = expand ?alg key in
  mac_update buf ~base ~hop ~key;
  mark_update buf ~base ~key

type failure = Bad_data_hash | Bad_opv of int | Bad_pvf

let pp_failure fmt = function
  | Bad_data_hash -> Format.pp_print_string fmt "data hash mismatch"
  | Bad_opv i -> Format.fprintf fmt "OPV %d mismatch" i
  | Bad_pvf -> Format.pp_print_string fmt "PVF mismatch"

let verify ?alg buf ~base ~hops ~session_keys ~dest_key ~payload =
  if List.length session_keys <> hops then
    invalid_arg "Opt.Protocol.verify: need one session key per hop";
  let data_hash = Header.get_data_hash buf ~base in
  let payload_ok =
    match payload with
    | None -> true
    | Some p -> Mac2em.tags_equal data_hash (hash_payload p)
  in
  if not payload_ok then Error Bad_data_hash
  else begin
    (* Replay the chain from the seed PVF over one copy of the span,
       whose PVF bytes carry each hop's incoming PVF in turn. *)
    let span = Bitbuf.sub_bytes buf ~pos:base ~len:52 in
    let rec go hop pvf = function
      | [] -> if Mac2em.tags_equal pvf (Header.get_pvf buf ~base) then Ok () else Error Bad_pvf
      | key :: rest ->
          let key = expand ?alg key in
          Bytes.blit_string pvf 0 span 36 16;
          let expected_opv = mac key (Bytes.to_string span) in
          if not (Mac2em.tags_equal expected_opv (Header.get_opv buf ~base hop)) then
            Error (Bad_opv hop)
          else go (hop + 1) (mac key pvf) rest
    in
    go 1 (mac (expand ?alg dest_key) data_hash) session_keys
  end

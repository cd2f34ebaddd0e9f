module Bitbuf = Dip_bitbuf.Bitbuf
module Header = Dip_core.Header
module Opkey = Dip_core.Opkey
module Registry = Dip_core.Registry
module Crc32 = Dip_stdext.Crc32

(* A CRC as [Int32.to_int] reads it, sign bit cleared: the digest of
   [Crc32.digest_sub_int], which boxes no [int32], folded as the
   [int32] digests were. *)
let fold crc =
  let s = Sys.int_size - 32 in
  ((crc lsl s) asr s) land max_int

let digest d ~pos ~len = fold (Crc32.digest_sub_int ~init:0 d ~pos ~len)

(* Fallback when there is no parsable forwarding FN: hash everything.
   Deterministic, just without the same-flow-same-worker guarantee
   (there is no flow to speak of). *)
let whole buf =
  let d = Bitbuf.to_bytes buf in
  digest d ~pos:0 ~len:(Bytes.length d)

(* Which wire keys name a forwarding operation: one whose transfer row
   matches a node table ([t_match]). *)
let forwarding =
  Array.init (Opkey.max_key + 1) (fun i ->
      match Opkey.of_int i with
      | Some k -> (Registry.transfer k).Registry.t_match
      | None -> false)

(* The byte offset of the triple of the first FN whose operation key
   is declared [forwarding] -- the FN whose target field decides where
   the packet goes -- or -1 when the header does not fit the buffer or
   there is none. Read from the raw triples; a full Fn.decode per
   packet would defeat the point of hashing before parsing. *)
let rec find_forwarding buf ~fn_num i =
  if i >= fn_num then -1
  else
    let pos = Header.fn_offset i in
    let key = Bitbuf.get_uint16 buf (pos + 4) land 0x7fff in
    if key < Array.length forwarding && forwarding.(key) then pos
    else find_forwarding buf ~fn_num (i + 1)

let forwarding_triple buf =
  if Bitbuf.length buf < Header.basic_size
     || Header.announced_length buf > Bitbuf.length buf
  then -1
  else find_forwarding buf ~fn_num:(Header.wire_fn_num buf) 0

(* The target's absolute bit offset, for the triple at [pos]. *)
let target_bits buf pos =
  (8 * Header.wire_locations_offset buf) + Bitbuf.get_uint16 buf pos

let match_field buf =
  let pos = forwarding_triple buf in
  if pos < 0 then None
  else
    let len_bits = Bitbuf.get_uint16 buf (pos + 2) in
    if len_bits = 0 then None
    else Some (Dip_bitbuf.Field.v ~off_bits:(target_bits buf pos) ~len_bits)

let hash buf =
  let pos = forwarding_triple buf in
  let len_bits = if pos < 0 then 0 else Bitbuf.get_uint16 buf (pos + 2) in
  if len_bits = 0 then whole buf
  else begin
    (* Hash the bytes covering the target-field bit range. Byte
       granularity over-covers by at most 7 bits on each side --
       harmless, since it is the same bytes for every packet of the
       flow. *)
    let off_bits = target_bits buf pos in
    let first = off_bits / 8 in
    let last = Stdlib.min ((off_bits + len_bits + 7) / 8) (Bitbuf.length buf) in
    if first >= last then whole buf
    else digest (Bitbuf.to_bytes buf) ~pos:first ~len:(last - first)
  end

let shard buf ~workers = if workers <= 1 then 0 else hash buf mod workers

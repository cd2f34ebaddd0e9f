module Bitbuf = Dip_bitbuf.Bitbuf

type record = { node_id : int; timestamp : int32; queue_depth : int }

let record_bytes = 8

let region_size ~max_hops =
  if max_hops < 1 then invalid_arg "Telemetry.region_size";
  1 + (record_bytes * max_hops)

let capacity ~region_bytes = (region_bytes - 1) / record_bytes

(* The region's first byte: the overflow bit over the 7-bit count. *)
let overflow = 0x80
let count_mask = 0x7F

let init buf ~base = Bitbuf.set_uint8 buf base 0

let record_off base i = base + 1 + (record_bytes * i)

(* Every field is written with a byte store, the timestamp's low 32
   bits. *)
let write buf ~base ~region_bytes ~node_id ~timestamp ~queue_depth =
  let b = Bitbuf.to_bytes buf in
  let head = Bytes.get_uint8 b base in
  let count = head land count_mask in
  if count >= capacity ~region_bytes || count >= count_mask then begin
    Bytes.set_uint8 b base (head lor overflow);
    false
  end
  else begin
    let off = record_off base count in
    Bytes.set_uint16_be b off (node_id land 0xFFFF);
    Bytes.set_int32_be b (off + 2) (Int32.of_int timestamp);
    Bytes.set_uint16_be b (off + 6) (queue_depth land 0xFFFF);
    Bytes.set_uint8 b base (head land overflow lor (count + 1));
    true
  end

let append buf ~base ~region_bytes r =
  write buf ~base ~region_bytes ~node_id:r.node_id ~timestamp:(Int32.to_int r.timestamp)
    ~queue_depth:r.queue_depth

let read buf ~base ~region_bytes =
  let head = Bitbuf.get_uint8 buf base in
  let count = min (head land count_mask) (capacity ~region_bytes) in
  let records =
    List.init count (fun i ->
        let off = record_off base i in
        {
          node_id = Bitbuf.get_uint16 buf off;
          timestamp = Bitbuf.get_uint32 buf (off + 2);
          queue_depth = Bitbuf.get_uint16 buf (off + 6);
        })
  in
  (records, head land overflow <> 0)

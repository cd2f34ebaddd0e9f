(* The Host.Reliable wire as first written: a data or ACK packet
   assembled by Packet.build from its FN list and a locations string,
   the custody ACK likewise, and classify over the view Packet.parse
   builds. Host.Reliable now copies a template per packet and reads
   every field where it lies; test_faults checks it against these,
   byte for byte and verdict for verdict. *)

module Bitbuf = Dip_bitbuf.Bitbuf
module Crc32 = Dip_stdext.Crc32
module Ipaddr = Dip_tables.Ipaddr
open Dip_core

let data_next_header = 0xFD
let ack_next_header = 0xFC
let loc_len = 16

let fns =
  [ Fn.v ~loc:0 ~len:32 Opkey.F_32_match; Fn.v ~loc:32 ~len:32 Opkey.F_source ]

let crc_of_view (view : Packet.view) =
  let covered = Bitbuf.sub_string view.Packet.buf ~pos:view.Packet.loc_base ~len:12 in
  Crc32.digest ~init:(Crc32.digest covered) (Packet.payload view)

let build ?(custody = false) ~next_header ~dst ~src ~seq ~payload () =
  let n = if custody then loc_len + Custody.region_bytes else loc_len in
  let loc = Bytes.create n in
  Bytes.blit_string (Ipaddr.V4.to_wire dst) 0 loc 0 4;
  Bytes.blit_string (Ipaddr.V4.to_wire src) 0 loc 4 4;
  Bytes.set_int32_be loc 8 seq;
  let crc = Crc32.digest ~init:(Crc32.digest_sub loc ~pos:0 ~len:12) payload in
  Bytes.set_int32_be loc 12 crc;
  let fns =
    if custody then begin
      Custody.set_region loc ~off:loc_len ~flags:Custody.flag_request ~bundle:seq;
      fns @ [ Custody.fn_at ~loc:(8 * loc_len) ]
    end
    else fns
  in
  Packet.build ~next_header ~fns ~locations:(Bytes.to_string loc) ~payload ()

let build_custody_ack ~bundle =
  let loc = Bytes.create Custody.region_bytes in
  Custody.set_region loc ~off:0 ~flags:Custody.flag_ack ~bundle;
  Packet.build ~next_header:Custody.ack_next_header
    ~fns:[ Custody.fn_at ~loc:0 ]
    ~locations:(Bytes.to_string loc) ~payload:"" ()

type frame = {
  f_dst : Ipaddr.V4.t;
  f_src : Ipaddr.V4.t;
  seq : int32;
  custody : int32 option;
}

type result =
  [ `Data of frame
  | `Ack of frame
  | `Cust_ack of int32
  | `Other
  | `Corrupt
  | `Invalid of string ]

let classify packet : result =
  match Packet.parse packet with
  | Error e -> `Invalid ("parse: " ^ e)
  | Ok view ->
      let nh = view.Packet.header.Header.next_header in
      if nh = Custody.ack_next_header then begin
        if view.Packet.header.Header.fn_loc_len < Custody.region_bytes then
          `Invalid "custody: short ack region"
        else `Cust_ack (Custody.read_bundle view.Packet.buf ~base:view.Packet.loc_base)
      end
      else if nh <> data_next_header && nh <> ack_next_header then `Other
      else if view.Packet.header.Header.fn_loc_len < loc_len then
        `Invalid "reliable: short locations region"
      else begin
        let base = view.Packet.loc_base in
        let stored = Bitbuf.get_uint32 view.Packet.buf (base + 12) in
        if not (Int32.equal stored (crc_of_view view)) then `Corrupt
        else
          let custody =
            if
              view.Packet.header.Header.fn_loc_len >= loc_len + Custody.region_bytes
              && Custody.read_flags view.Packet.buf ~base:(base + loc_len)
                 land Custody.flag_request
                 <> 0
            then Some (Custody.read_bundle view.Packet.buf ~base:(base + loc_len))
            else None
          in
          let frame =
            {
              f_dst = Ipaddr.V4.of_wire (Bitbuf.sub_string view.Packet.buf ~pos:base ~len:4);
              f_src =
                Ipaddr.V4.of_wire (Bitbuf.sub_string view.Packet.buf ~pos:(base + 4) ~len:4);
              seq = Bitbuf.get_uint32 view.Packet.buf (base + 8);
              custody;
            }
          in
          if nh = data_next_header then `Data frame else `Ack frame
      end

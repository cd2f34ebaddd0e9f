module Bitbuf = Dip_bitbuf.Bitbuf
module Ipaddr = Dip_tables.Ipaddr

type header = {
  src : Ipaddr.V6.t;
  dst : Ipaddr.V6.t;
  hop_limit : int;
  next_header : int;
  payload_len : int;
}

let header_size = 40

let encode h ~payload =
  if h.hop_limit < 0 || h.hop_limit > 255 then invalid_arg "Ipv6.encode: bad hop limit";
  if h.next_header < 0 || h.next_header > 255 then
    invalid_arg "Ipv6.encode: bad next header";
  if h.payload_len <> String.length payload then
    invalid_arg "Ipv6.encode: payload_len mismatch";
  if h.payload_len > 0xFFFF then invalid_arg "Ipv6.encode: payload too large";
  let b = Bitbuf.create (header_size + String.length payload) in
  Bitbuf.set_uint8 b 0 0x60 (* version 6, traffic class 0 *);
  (* bytes 1-3: traffic class low nibble + flow label, all zero *)
  Bitbuf.set_uint16 b 4 h.payload_len;
  Bitbuf.set_uint8 b 6 h.next_header;
  Bitbuf.set_uint8 b 7 h.hop_limit;
  Bitbuf.blit ~src:(Bitbuf.of_string (Ipaddr.V6.to_wire h.src)) ~src_off:0
    ~dst:b ~dst_off:8 ~len:16;
  Bitbuf.blit ~src:(Bitbuf.of_string (Ipaddr.V6.to_wire h.dst)) ~src_off:0
    ~dst:b ~dst_off:24 ~len:16;
  Bitbuf.blit ~src:(Bitbuf.of_string payload) ~src_off:0 ~dst:b
    ~dst_off:header_size ~len:(String.length payload);
  b

let field_addr off =
  Dip_bitbuf.Field.v ~off_bits:(8 * off) ~len_bits:128

let decode buf =
  if Bitbuf.length buf < header_size then Error "truncated header"
  else if Bitbuf.get_uint8 buf 0 lsr 4 <> 6 then Error "not IPv6"
  else
    let payload_len = Bitbuf.get_uint16 buf 4 in
    if header_size + payload_len > Bitbuf.length buf then Error "bad payload length"
    else
      Ok
        {
          src = Ipaddr.V6.of_wire (Bitbuf.get_field buf (field_addr 8));
          dst = Ipaddr.V6.of_wire (Bitbuf.get_field buf (field_addr 24));
          hop_limit = Bitbuf.get_uint8 buf 7;
          next_header = Bitbuf.get_uint8 buf 6;
          payload_len;
        }

let decrement_hop_limit buf =
  let hl = Bitbuf.get_uint8 buf 7 in
  if hl <= 1 then false
  else begin
    Bitbuf.set_uint8 buf 7 (hl - 1);
    true
  end

type route_table = Dip_netsim.Sim.port Dip_tables.Fib.V6.t

let add_route table prefix port =
  match prefix.Ipaddr.Prefix.addr with
  | Ipaddr.Prefix.V6 a ->
      Dip_tables.Fib.V6.insert table a ~len:prefix.Ipaddr.Prefix.len port
  | Ipaddr.Prefix.V4 _ -> invalid_arg "Ipv6.add_route: v4 prefix in v6 table"

type verdict =
  | Forward of Dip_netsim.Sim.port
  | Deliver
  | Discard of string

let forward table buf =
  match decode buf with
  | Error e -> Discard e
  | Ok h -> (
      match Dip_tables.Fib.V6.lookup table h.dst with
      | None -> Discard "no-route"
      | Some (_, port) ->
          if decrement_hop_limit buf then Forward port
          else Discard "hop-limit-expired")

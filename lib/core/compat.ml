module Bitbuf = Dip_bitbuf.Bitbuf

let dip_protocol_number = 0xFD

let encapsulate_ipv4 ~src ~dst dip_packet =
  let payload = Bitbuf.to_string dip_packet in
  Dip_ip.Ipv4.encode
    {
      Dip_ip.Ipv4.src = src;
      dst;
      ttl = 64;
      protocol = dip_protocol_number;
      payload_len = String.length payload;
    }
    ~payload

let decapsulate_ipv4 buf =
  match Dip_ip.Ipv4.decode buf with
  | Error e -> Error ("tunnel: " ^ e)
  | Ok h ->
      if h.Dip_ip.Ipv4.protocol <> dip_protocol_number then
        Error "tunnel: not a DIP tunnel packet"
      else
        let s = Bitbuf.to_string buf in
        Ok
          (Bitbuf.of_string
             (String.sub s Dip_ip.Ipv4.header_size h.Dip_ip.Ipv4.payload_len))

let strip buf =
  match Packet.parse buf with
  | Error e -> Error e
  | Ok view ->
      let s = Bitbuf.to_string buf in
      let loc = view.Packet.loc_base in
      Ok (Bitbuf.of_string (String.sub s loc (String.length s - loc)))

let restore ~fns ?hop_limit ?parallel ~loc_len legacy =
  let s = Bitbuf.to_string legacy in
  if String.length s < loc_len then Error "restore: packet shorter than loc_len"
  else
    let locations = String.sub s 0 loc_len in
    let payload = String.sub s loc_len (String.length s - loc_len) in
    match
      Packet.build ?hop_limit ?parallel ~fns ~locations ~payload ()
    with
    | buf -> Ok buf
    | exception Invalid_argument e -> Error e

module Bitbuf = Dip_bitbuf.Bitbuf
module Ipaddr = Dip_tables.Ipaddr

type header = {
  src : Ipaddr.V4.t;
  dst : Ipaddr.V4.t;
  ttl : int;
  protocol : int;
  payload_len : int;
}

let header_size = 20

(* One's-complement sum over 16-bit words of the header (RFC 1071). *)
let internet_checksum buf ~pos ~len =
  let sum = ref 0 in
  let i = ref 0 in
  while !i + 1 < len do
    sum := !sum + Bitbuf.get_uint16 buf (pos + !i);
    i := !i + 2
  done;
  if !i < len then sum := !sum + (Bitbuf.get_uint8 buf (pos + !i) lsl 8);
  while !sum > 0xFFFF do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  lnot !sum land 0xFFFF

let encode h ~payload =
  if h.ttl < 0 || h.ttl > 255 then invalid_arg "Ipv4.encode: bad ttl";
  if h.protocol < 0 || h.protocol > 255 then invalid_arg "Ipv4.encode: bad protocol";
  if h.payload_len <> String.length payload then
    invalid_arg "Ipv4.encode: payload_len mismatch";
  let total = header_size + String.length payload in
  if total > 0xFFFF then invalid_arg "Ipv4.encode: packet too large";
  let b = Bitbuf.create total in
  Bitbuf.set_uint8 b 0 0x45 (* version 4, IHL 5 *);
  Bitbuf.set_uint8 b 1 0 (* DSCP/ECN *);
  Bitbuf.set_uint16 b 2 total;
  Bitbuf.set_uint16 b 4 0 (* identification *);
  Bitbuf.set_uint16 b 6 0 (* flags/fragment *);
  Bitbuf.set_uint8 b 8 h.ttl;
  Bitbuf.set_uint8 b 9 h.protocol;
  Bitbuf.set_uint16 b 10 0 (* checksum placeholder *);
  Bitbuf.set_uint32 b 12 h.src;
  Bitbuf.set_uint32 b 16 h.dst;
  Bitbuf.set_uint16 b 10 (internet_checksum b ~pos:0 ~len:header_size);
  Bitbuf.blit ~src:(Bitbuf.of_string payload) ~src_off:0 ~dst:b
    ~dst_off:header_size ~len:(String.length payload);
  b

let checksum_valid buf =
  Bitbuf.length buf >= header_size
  && internet_checksum buf ~pos:0 ~len:header_size = 0

let decode buf =
  if Bitbuf.length buf < header_size then Error "truncated header"
  else
    let vihl = Bitbuf.get_uint8 buf 0 in
    if vihl lsr 4 <> 4 then Error "not IPv4"
    else if vihl land 0xF <> 5 then Error "options unsupported"
    else if not (checksum_valid buf) then Error "bad checksum"
    else
      let total = Bitbuf.get_uint16 buf 2 in
      if total < header_size || total > Bitbuf.length buf then
        Error "bad total length"
      else
        Ok
          {
            src = Bitbuf.get_uint32 buf 12;
            dst = Bitbuf.get_uint32 buf 16;
            ttl = Bitbuf.get_uint8 buf 8;
            protocol = Bitbuf.get_uint8 buf 9;
            payload_len = total - header_size;
          }

(* RFC 1624 incremental update: the TTL lives in the high byte of
   word 4, so decrementing it subtracts 0x0100 from that word. *)
let decrement_ttl buf =
  let ttl = Bitbuf.get_uint8 buf 8 in
  if ttl <= 1 then false
  else begin
    Bitbuf.set_uint8 buf 8 (ttl - 1);
    let sum = Bitbuf.get_uint16 buf 10 + 0x0100 in
    let sum = (sum land 0xFFFF) + (sum lsr 16) in
    Bitbuf.set_uint16 buf 10 (sum land 0xFFFF);
    true
  end

type route_table = Dip_netsim.Sim.port Dip_tables.Fib.V4.t

let add_route table prefix port =
  match prefix.Ipaddr.Prefix.addr with
  | Ipaddr.Prefix.V4 a ->
      Dip_tables.Fib.V4.insert table a ~len:prefix.Ipaddr.Prefix.len port
  | Ipaddr.Prefix.V6 _ -> invalid_arg "Ipv4.add_route: v6 prefix in v4 table"

type verdict =
  | Forward of Dip_netsim.Sim.port
  | Deliver
  | Discard of string

let forward ?local table buf =
  match decode buf with
  | Error e -> Discard e
  | Ok h -> (
      if local = Some h.dst then Deliver
      else
        match Dip_tables.Fib.V4.lookup table h.dst with
        | None -> Discard "no-route"
        | Some (_, port) ->
            if decrement_ttl buf then Forward port else Discard "ttl-expired")

let handler ?local table _sim ~now:_ ~ingress:_ packet =
  match forward ?local table packet with
  | Forward port -> [ Dip_netsim.Sim.Forward (port, packet) ]
  | Deliver -> [ Dip_netsim.Sim.Consume ]
  | Discard reason -> [ Dip_netsim.Sim.Drop reason ]

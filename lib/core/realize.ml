module Bitbuf = Dip_bitbuf.Bitbuf
module Ipaddr = Dip_tables.Ipaddr
module Name = Dip_tables.Name

let ipv4 ?hop_limit ~src ~dst ~payload () =
  (* Destination in the lower 32 bits, source in the upper (§3). *)
  let locations = Ipaddr.V4.to_wire dst ^ Ipaddr.V4.to_wire src in
  Packet.build ?hop_limit
    ~fns:
      [
        Fn.v ~loc:0 ~len:32 Opkey.F_32_match;
        Fn.v ~loc:32 ~len:32 Opkey.F_source;
      ]
    ~locations ~payload ()

let ipv6 ~src ~dst ~payload () =
  let locations = Ipaddr.V6.to_wire dst ^ Ipaddr.V6.to_wire src in
  Packet.build
    ~fns:
      [
        Fn.v ~loc:0 ~len:128 Opkey.F_128_match;
        Fn.v ~loc:128 ~len:128 Opkey.F_source;
      ]
    ~locations ~payload ()

let hash_wire name =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Name.hash32 name);
  Bytes.to_string b

(* Optionally append an F_pass source label after the name: the
   label commits to the rest of the locations region (§2.4). *)
let with_pass ~pass ~fns ~locations =
  match pass with
  | None -> (fns, locations)
  | Some key ->
      let label_loc = 8 * String.length locations in
      let label_field = Dip_bitbuf.Field.v ~off_bits:label_loc ~len_bits:32 in
      let padded = locations ^ String.make 4 '\000' in
      let label = Ops.compute_pass_label key ~locations:padded ~label_field in
      let b = Bytes.of_string padded in
      Bytes.set_int32_be b (String.length locations) label;
      (* The label check must run before any forwarding/caching FN,
         so F_pass comes first in Algorithm 1's execution order. *)
      ( Fn.v ~loc:label_loc ~len:32 Opkey.F_pass :: fns,
        Bytes.to_string b )

let ndn_interest ?pass ~name ~payload () =
  let fns, locations =
    with_pass ~pass
      ~fns:[ Fn.v ~loc:0 ~len:32 Opkey.F_fib ]
      ~locations:(hash_wire name)
  in
  Packet.build ~fns ~locations ~payload ()

let ndn_data ~name ~content () =
  Packet.build
    ~fns:[ Fn.v ~loc:0 ~len:32 Opkey.F_pit ]
    ~locations:(hash_wire name) ~payload:content ()

let opt_fns ~hops ~name_after =
  let ver_len = Dip_opt.Header.size_bits ~hops in
  let base =
    [
      Fn.v ~loc:128 ~len:128 Opkey.F_parm;
      Fn.v ~loc:0 ~len:416 Opkey.F_mac;
      Fn.v ~loc:288 ~len:128 Opkey.F_mark;
      Fn.v ~tag:Fn.Host ~loc:0 ~len:ver_len Opkey.F_ver;
    ]
  in
  if name_after then Fn.v ~loc:ver_len ~len:32 Opkey.F_pit :: base else base

let opt_locations ?alg ~hops ~session_id ~timestamp ~dest_key ~payload extra =
  let size = Dip_opt.Header.size_bytes ~hops in
  let buf = Bitbuf.create (size + String.length extra) in
  Dip_opt.Protocol.source_init ?alg buf ~base:0 ~hops ~session_id ~timestamp
    ~dest_key ~payload;
  Bitbuf.blit ~src:(Bitbuf.of_string extra) ~src_off:0 ~dst:buf ~dst_off:size
    ~len:(String.length extra);
  Bitbuf.to_string buf

let opt ?alg ~hops ~session_id ~timestamp ~dest_key ~payload () =
  Packet.build
    ~fns:(opt_fns ~hops ~name_after:false)
    ~locations:
      (opt_locations ?alg ~hops ~session_id ~timestamp ~dest_key ~payload "")
    ~payload ()

let ndn_opt_interest ~name ~payload () = ndn_interest ~name ~payload ()

let ndn_opt_data ~hops ~session_id ~timestamp ~dest_key ~name ~content () =
  Packet.build
    ~fns:(opt_fns ~hops ~name_after:true)
    ~locations:
      (opt_locations ~hops ~session_id ~timestamp ~dest_key
         ~payload:content (hash_wire name))
    ~payload:content ()

let xia ~dag ~payload () =
  let wire = "\x00" ^ Dip_xia.Dag.to_wire dag in
  let len_bits = 8 * String.length wire in
  Packet.build
    ~fns:
      [
        Fn.v ~loc:0 ~len:len_bits Opkey.F_dag;
        Fn.v ~loc:0 ~len:len_bits Opkey.F_intent;
      ]
    ~locations:wire ~payload ()

let netfence ~src ~dst ~sender ~rate ~timestamp ~payload () =
  let nf = Dip_netfence.Header.size_bytes in
  let region = Bitbuf.create (nf + 8) in
  Dip_netfence.Header.init region ~base:0 ~sender ~rate ~timestamp;
  Bitbuf.blit
    ~src:(Bitbuf.of_string (Ipaddr.V4.to_wire dst ^ Ipaddr.V4.to_wire src))
    ~src_off:0 ~dst:region ~dst_off:nf ~len:8;
  let nf_bits = 8 * nf in
  Packet.build
    ~fns:
      [
        Fn.v ~loc:0 ~len:nf_bits Opkey.F_cc;
        Fn.v ~loc:nf_bits ~len:32 Opkey.F_32_match;
        Fn.v ~loc:(nf_bits + 32) ~len:32 Opkey.F_source;
      ]
    ~locations:(Bitbuf.to_string region) ~payload ()

let ipv4_telemetry ~max_hops ~src ~dst ~payload () =
  let tel = Telemetry.region_size ~max_hops in
  let region = Bitbuf.create (tel + 8) in
  Telemetry.init region ~base:0;
  Bitbuf.blit
    ~src:(Bitbuf.of_string (Ipaddr.V4.to_wire dst ^ Ipaddr.V4.to_wire src))
    ~src_off:0 ~dst:region ~dst_off:tel ~len:8;
  let tel_bits = 8 * tel in
  Packet.build
    ~fns:
      [
        Fn.v ~loc:0 ~len:tel_bits Opkey.F_tel;
        Fn.v ~loc:tel_bits ~len:32 Opkey.F_32_match;
        Fn.v ~loc:(tel_bits + 32) ~len:32 Opkey.F_source;
      ]
    ~locations:(Bitbuf.to_string region) ~payload ()

let epic ~hops ~src_id ~timestamp ~hop_keys ~src ~dst ~payload () =
  if List.length hop_keys <> hops then
    invalid_arg "Realize.epic: need one hop key per hop";
  let region_bytes = Dip_epic.Header.size_bytes ~hops in
  let region = Bitbuf.create (region_bytes + 8) in
  Dip_epic.Protocol.source_init region ~base:0 ~src:src_id ~timestamp ~hop_keys
    ~payload;
  Bitbuf.blit
    ~src:(Bitbuf.of_string (Ipaddr.V4.to_wire dst ^ Ipaddr.V4.to_wire src))
    ~src_off:0 ~dst:region ~dst_off:region_bytes ~len:8;
  let region_bits = 8 * region_bytes in
  Packet.build
    ~fns:
      [
        Fn.v ~loc:0 ~len:region_bits Opkey.F_hvf;
        Fn.v ~loc:region_bits ~len:32 Opkey.F_32_match;
        Fn.v ~loc:(region_bits + 32) ~len:32 Opkey.F_source;
      ]
    ~locations:(Bitbuf.to_string region) ~payload ()

type protocol =
  | P_ipv6_native
  | P_ipv4_native
  | P_dip128
  | P_dip32
  | P_ndn
  | P_opt
  | P_ndn_opt

let protocol_name = function
  | P_ipv6_native -> "IPv6 forwarding"
  | P_ipv4_native -> "IPv4 forwarding"
  | P_dip128 -> "DIP-128 forwarding"
  | P_dip32 -> "DIP-32 forwarding"
  | P_ndn -> "NDN forwarding"
  | P_opt -> "OPT forwarding"
  | P_ndn_opt -> "NDN+OPT forwarding"

let dip_header_size buf =
  match Packet.header_size buf with
  | Ok n -> n
  | Error e -> invalid_arg ("Realize.header_overhead: " ^ e)

let header_overhead p =
  let dest_key = String.make 16 'k' in
  match p with
  | P_ipv6_native -> Dip_ip.Ipv6.header_size
  | P_ipv4_native -> Dip_ip.Ipv4.header_size
  | P_dip128 ->
      dip_header_size
        (ipv6
           ~src:(Ipaddr.V6.of_string "2001:db8::1")
           ~dst:(Ipaddr.V6.of_string "2001:db8::2")
           ~payload:"" ())
  | P_dip32 ->
      dip_header_size
        (ipv4
           ~src:(Ipaddr.V4.of_string "10.0.0.1")
           ~dst:(Ipaddr.V4.of_string "10.0.0.2")
           ~payload:"" ())
  | P_ndn ->
      dip_header_size
        (ndn_interest ~name:(Name.of_string "/hotnets.org") ~payload:"" ())
  | P_opt ->
      dip_header_size
        (opt ~hops:1 ~session_id:1L ~timestamp:0l ~dest_key ~payload:"" ())
  | P_ndn_opt ->
      dip_header_size
        (ndn_opt_data ~hops:1 ~session_id:1L ~timestamp:0l ~dest_key
           ~name:(Name.of_string "/hotnets.org") ~content:"" ())

(* Packets the differential tests share: every Realize program and a
   seeded generator of random FN programs. test_staged feeds them to
   the staged engine and its Algorithm 1 oracle; test_analysis to the
   verifier and the analyzer. The constants are the keys and names
   the realizations use, and test_staged's nodes are configured with
   the same ones. *)

open Dip_core
module Bitbuf = Dip_bitbuf.Bitbuf
module Ipaddr = Dip_tables.Ipaddr
module Name = Dip_tables.Name
module Prng = Dip_stdext.Prng
module Drkey = Dip_opt.Drkey
module Xid = Dip_xia.Xid

let v4 = Ipaddr.V4.of_string
let v6 = Ipaddr.V6.of_string
let secret = Drkey.secret_of_string "staged-router-00"
let dst_secret = Drkey.secret_of_string "staged-dest-0000"
let pass_key = Dip_crypto.Siphash.key_of_string "staged-pass-key!"
let dest_ad = Xid.of_name Xid.AD "staged-as"
let names = [| Name.of_string "/a"; Name.of_string "/b/c"; Name.of_string "/d" |]
let session_id = 4242L
let dest_key = Drkey.derive dst_secret ~session_id

let realized () =
  let epic_keys =
    [ Dip_epic.Protocol.derive_key secret ~src:9l ~timestamp:5l ]
  in
  let custody =
    let loc = Bytes.make (Custody.region_bytes + 8) '\000' in
    Custody.set_region loc ~off:0 ~flags:Custody.flag_request ~bundle:77l;
    Bytes.blit_string (Ipaddr.V4.to_wire (v4 "10.2.3.4")) 0 loc Custody.region_bytes 4;
    Packet.build
      ~fns:
        [
          Custody.fn_at ~loc:0;
          Fn.v ~loc:(Custody.region_bits) ~len:32 Opkey.F_32_match;
          Fn.v ~loc:(Custody.region_bits + 32) ~len:32 Opkey.F_source;
        ]
      ~locations:(Bytes.to_string loc) ~payload:"bundle" ()
  in
  [
    Realize.ipv4 ~src:(v4 "192.0.2.1") ~dst:(v4 "10.1.2.3") ~payload:"x" ();
    Realize.ipv4 ~src:(v4 "192.0.2.1") ~dst:(v4 "10.0.0.1") ~payload:"x" ();
    Realize.ipv4 ~hop_limit:1 ~src:(v4 "192.0.2.1") ~dst:(v4 "10.1.2.3") ~payload:"" ();
    Realize.ipv4 ~src:(v4 "192.0.2.1") ~dst:(v4 "172.16.0.1") ~payload:"" ();
    Realize.ipv6 ~src:(v6 "::1") ~dst:(v6 "2001:db8::9") ~payload:"x" ();
    Realize.ipv6 ~src:(v6 "::1") ~dst:(v6 "2001:db8::1") ~payload:"x" ();
    Realize.ndn_interest ~name:names.(0) ~payload:"" ();
    Realize.ndn_interest ~name:names.(2) ~payload:"" ();
    Realize.ndn_interest ~pass:pass_key ~name:names.(1) ~payload:"" ();
    Realize.ndn_data ~name:names.(0) ~content:"hello" ();
    Realize.ndn_interest ~name:names.(0) ~payload:"" ();
    Realize.opt ~hops:1 ~session_id ~timestamp:3l ~dest_key ~payload:"p" ();
    Realize.opt ~hops:2 ~session_id ~timestamp:3l ~dest_key ~payload:"p" ();
    Realize.ndn_opt_interest ~name:names.(1) ~payload:"" ();
    Realize.ndn_opt_data ~hops:1 ~session_id ~timestamp:3l ~dest_key
      ~name:names.(1) ~content:"c" ();
    Realize.xia ~dag:(Dip_xia.Dag.fallback ~intent:(Xid.of_name Xid.SID "svc")
                        ~via:[ dest_ad; Xid.of_name Xid.HID "h" ])
      ~payload:"x" ();
    Realize.xia ~dag:(Dip_xia.Dag.direct (Xid.of_name Xid.SID "nowhere")) ~payload:"" ();
    Realize.netfence ~src:(v4 "192.0.2.1") ~dst:(v4 "10.1.2.3") ~sender:1l
      ~rate:1e6 ~timestamp:1l ~payload:"x" ();
    Realize.ipv4_telemetry ~max_hops:2 ~src:(v4 "192.0.2.1") ~dst:(v4 "10.1.2.3")
      ~payload:"x" ();
    Realize.epic ~hops:1 ~src_id:9l ~timestamp:5l ~hop_keys:epic_keys
      ~src:(v4 "192.0.2.1") ~dst:(v4 "10.1.2.3") ~payload:"x" ();
    Realize.epic ~hops:1 ~src_id:9l ~timestamp:5l
      ~hop_keys:[ String.make 16 'z' ] ~src:(v4 "192.0.2.1")
      ~dst:(v4 "10.1.2.3") ~payload:"x" ();
    custody;
  ]
  |> List.map Bitbuf.to_string

(* The realizations whose operations parse regions of their own: OPT
   and NDN+OPT (MAC spans and tags), EPIC (the HVFs) and XIA (the
   DAG). *)
let region_parsers () =
  let dag = Dip_xia.Dag.fallback ~intent:(Xid.of_name Xid.SID "svc") ~via:[ dest_ad ] in
  [
    Realize.opt ~hops:1 ~session_id ~timestamp:3l ~dest_key ~payload:"p" ();
    Realize.opt ~hops:2 ~session_id ~timestamp:3l ~dest_key ~payload:"p" ();
    Realize.ndn_opt_data ~hops:1 ~session_id ~timestamp:3l ~dest_key ~name:names.(1)
      ~content:"c" ();
    Realize.epic ~hops:1 ~src_id:9l ~timestamp:5l
      ~hop_keys:[ Dip_epic.Protocol.derive_key secret ~src:9l ~timestamp:5l ]
      ~src:(v4 "192.0.2.1") ~dst:(v4 "10.1.2.3") ~payload:"x" ();
    Realize.xia ~dag ~payload:"x" ();
  ]
  |> List.map Bitbuf.to_string

(* A seeded mutation of one of them: one to three random bytes in the
   basic header and FN definitions, in the locations and payload (the
   spans, tags and DAG), or anywhere; then, one time in four, a
   truncation. *)
let adversarial g s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let defs = min n (6 + (6 * Char.code (Bytes.get b 1))) in
  for _ = 1 to 1 + Prng.int g 3 do
    let i =
      match Prng.int g 3 with
      | 0 -> Prng.int g defs
      | 1 -> defs + Prng.int g (max 1 (n - defs))
      | _ -> Prng.int g n
    in
    if i < n then Bytes.set b i (Char.chr (Prng.int g 256))
  done;
  let s = Bytes.to_string b in
  if Prng.int g 4 = 0 then String.sub s 0 (Prng.int g (n + 1)) else s

(* Field widths the operations expect, plus a few they reject. *)
let widths = [| 8; 16; 32; 32; 32; 40; 64; 128; 128; 288; 416; 96; 12 |]

(* A random FN program over a 64-byte locations region: keys from
   Table 1 (half the programs lead with a key whose declared transfer
   matches a route, so most of them reach a forwarding decision),
   router or host tags, widths from [widths] or random, byte-aligned
   or not, and a random parallel flag. *)
let random_program g =
  let region = 64 in
  let keys = Array.of_list Opkey.all in
  let matching =
    Array.of_list
      (List.filter (fun k -> (Registry.transfer k).Registry.t_match) Opkey.all)
  in
  let nfns = 1 + Prng.int g 6 in
  let fn i =
    let key =
      if i = 0 && Prng.int g 2 = 0 then matching.(Prng.int g (Array.length matching))
      else keys.(Prng.int g (Array.length keys))
    in
    let len =
      if Prng.int g 4 = 0 then 1 + Prng.int g 200
      else widths.(Prng.int g (Array.length widths))
    in
    let len = min len (8 * region) in
    let room = (8 * region) - len in
    let loc = Prng.int g (room + 1) in
    let loc = if Prng.int g 4 = 0 then loc else loc land lnot 7 in
    let tag = if Prng.int g 4 = 0 then Fn.Host else Fn.Router in
    Fn.v ~tag ~loc ~len key
  in
  let fns = List.init nfns fn in
  let locations = String.init region (fun _ -> Char.chr (Prng.int g 256)) in
  let locations =
    (* Give the common 32-bit slots a routable address now and then. *)
    if Prng.int g 2 = 0 then
      Ipaddr.V4.to_wire (v4 "10.9.8.7") ^ String.sub locations 4 (region - 4)
    else locations
  in
  Bitbuf.to_string
    (Packet.build ~parallel:(Prng.int g 2 = 0)
       ~hop_limit:(1 + Prng.int g 8) ~fns ~locations
       ~payload:(String.make (Prng.int g 20) 'p') ())

module Bitbuf = Dip_bitbuf.Bitbuf
module Field = Dip_bitbuf.Field
module Ipaddr = Dip_tables.Ipaddr
module Pit = Dip_tables.Pit
open Registry

(* --- IP forwarding (keys 1-3) --- *)

(* A route to one port is the common outcome; for ports below 256 it
   is shared instead of allocated per packet. *)
let one_port = Array.init 256 (fun p -> Set_route [ p ])
let route_to p = if p >= 0 && p < 256 then one_port.(p) else Set_route [ p ]

(* The 32-bit target, boxed once: a byte-aligned one (every
   realization's) is a single load. *)
let[@inline never] read_v4 (ctx : ctx) =
  let off = ctx.target.Field.off_bits in
  if off land 7 = 0 then Bitbuf.get_uint32 ctx.view.Packet.buf (off lsr 3)
  else Int64.to_int32 (Bitbuf.get_uint ctx.view.Packet.buf ctx.target)

(* Key 1: 32-bit destination match against the v4 LPM table; local
   address → delivery. *)
let f_32_match ctx =
  if ctx.fn.Fn.field.Field.len_bits <> 32 then Abort "f32: field must be 32 bits"
  else
    let dst = read_v4 ctx in
    match ctx.env.Env.local_v4 with
    | Some a when Int32.equal a dst -> Deliver_local
    | _ ->
        (* DIR-24-8 fast path: id-based lookup is allocation-free. *)
        let id = Dip_tables.Fib.V4.lookup_id ctx.env.Env.v4_routes dst in
        if id < 0 then Abort "no-route"
        else route_to (Dip_tables.Fib.V4.value ctx.env.Env.v4_routes id)

(* Key 2: 128-bit destination match against the v6 LPM table. *)
let f_128_match ctx =
  if ctx.fn.Fn.field.Field.len_bits <> 128 then
    Abort "f128: field must be 128 bits"
  else
    let dst = Ipaddr.V6.of_wire (Bitbuf.get_field ctx.view.Packet.buf ctx.target) in
    if ctx.env.Env.local_v6 = Some dst then Deliver_local
    else
      let hi, lo = dst in
      let id = Dip_tables.Fib.V6.lookup_id ctx.env.Env.v6_routes hi lo in
      if id < 0 then Abort "no-route"
      else Set_route [ Dip_tables.Fib.V6.value ctx.env.Env.v6_routes id ]

(* Key 3: names where the source lives (32 or 128 bits). *)
let f_source ctx =
  (* The source field only needs to be well-formed; routers do not
     act on it. *)
  match ctx.fn.Fn.field.Field.len_bits with
  | 32 | 128 -> Continue
  | _ -> Abort "source: field must be 32 or 128 bits"

(* --- NDN (keys 4-5): the prototype forwards on 32-bit hashed
   content names (§4.1). --- *)

let read_name_hash ctx =
  if ctx.fn.Fn.field.Field.len_bits <> 32 then None
  else Some (Int64.to_int32 (Bitbuf.get_uint ctx.view.Packet.buf ctx.target))

(* A content-store hit turns the interest into a data packet sent
   back out of the ingress port: same 32-bit name in the locations,
   F_PIT replacing F_FIB, cached bytes as payload, the interest's
   live hop limit (byte 2 of the packet, see {!Registry.ctx}). *)
let data_packet_for ctx ~hash ~content =
  let loc = Bytes.create 4 in
  Bytes.set_int32_be loc 0 hash;
  Packet.build
    ~hop_limit:(Bitbuf.get_uint8 ctx.view.Packet.buf 2)
    ~fns:[ Fn.v ~loc:0 ~len:32 Opkey.F_pit ]
    ~locations:(Bytes.to_string loc) ~payload:content ()

(* Key 4: content-name FIB match for interest packets — records the
   receiving port in the PIT, then forwards on the FIB hit (§3,
   NDN). With a content store configured, a cache hit answers
   directly (§4.1 footnote 2). *)
let f_fib ctx =
  match read_name_hash ctx with
  | None -> Abort "fib: field must be 32 bits"
  | Some hash -> (
      match Env.cache_find ctx.env hash with
      | Some content -> Respond (data_packet_for ctx ~hash ~content)
      | None -> (
          (* Record the receiving port in the PIT (paper §3), then
             match the FIB. A PIT entry is new router state, charged
             against the §2.4 budget. *)
          if not (Guard.charge_state ctx.budget ~bytes:16) then
            Abort "guard-state-exhausted"
          else
            match
              Pit.insert ctx.env.Env.pit ~key:hash ~port:ctx.ingress
                ~now:ctx.now ~lifetime:ctx.env.Env.interest_lifetime
            with
            | Pit.Aggregated -> Silent
            | Pit.Rejected -> Abort "pit-full"
            | Pit.Forwarded -> (
                match Dip_tables.Name_fib.lookup_hash ctx.env.Env.fib hash with
                | Some port -> Set_route [ port ]
                | None ->
                    ignore (Pit.consume ctx.env.Env.pit ~key:hash ~now:ctx.now);
                    Abort "no-fib-entry")))

(* Key 5: PIT match for data packets — forward to the recorded
   request ports, or discard on a miss (§3, NDN). *)
let f_pit ctx =
  match read_name_hash ctx with
  | None -> Abort "pit: field must be 32 bits"
  | Some hash -> (
      match Pit.consume ctx.env.Env.pit ~key:hash ~now:ctx.now with
      | [] -> Abort "unsolicited-data"
      | ports ->
          Env.cache_insert ctx.env hash (Packet.payload ctx.view);
          Set_route ports)

(* --- OPT (keys 6-9) --- *)

(* An FN's target sits [span_off_bits] into its protocol region;
   recover the region's byte offset within the whole packet. *)
let fn_location_base view (fn : Fn.t) ~span_off_bits =
  let rel = fn.Fn.field.Field.off_bits - span_off_bits in
  if rel < 0 then Error "FN target before region start"
  else if rel mod 8 <> 0 then Error "region not byte aligned"
  else Ok (view.Packet.loc_base + (rel / 8))

(* Key 6: derive the dynamic OPT key from the session id in the
   target field with the router's local secret (§3, OPT). *)
let f_parm ctx =
  if ctx.fn.Fn.field.Field.len_bits <> 128 then
    Abort "parm: field must be 128 bits"
  else
    match ctx.env.Env.opt_secret with
    | None -> Abort "no-opt-identity"
    | Some secret -> (
        match fn_location_base ctx.view ctx.fn ~span_off_bits:128 with
        | Error e -> Abort ("parm: " ^ e)
        | Ok base ->
            let session_id =
              Dip_opt.Header.get_session_id ctx.view.Packet.buf ~base
            in
            let key = Dip_opt.Drkey.derive secret ~session_id in
            ctx.scratch.opt_key <- Some (Dip_opt.Protocol.expand ~alg:ctx.env.Env.opt_alg key);
            Continue)

(* Key 7: MAC over the target span, deposited in this router's OPV
   slot. Requires {i F_parm} to have run first. *)
let f_mac ctx =
  if ctx.fn.Fn.field.Field.len_bits <> 416 then
    Abort "mac: field must be 416 bits"
  else
    match ctx.scratch.opt_key with
    | None -> Abort "parm-not-loaded"
    | Some key -> (
        match fn_location_base ctx.view ctx.fn ~span_off_bits:0 with
        | Error e -> Abort ("mac: " ^ e)
        | Ok base ->
            let hop = ctx.env.Env.opt_hop in
            let opv_end_bits = 416 + (128 * hop) in
            let region_bits =
              8 * (ctx.view.Packet.header.Header.fn_loc_len
                   - (base - ctx.view.Packet.loc_base))
            in
            if opv_end_bits > region_bits then Abort "opv-slot-out-of-range"
            else begin
              Dip_opt.Protocol.mac_update ctx.view.Packet.buf ~base ~hop ~key;
              Continue
            end)

(* Key 8: fold the router's key into the PVF (the mark update). *)
let f_mark ctx =
  if ctx.fn.Fn.field.Field.len_bits <> 128 then
    Abort "mark: field must be 128 bits"
  else
    match ctx.scratch.opt_key with
    | None -> Abort "parm-not-loaded"
    | Some key -> (
        match fn_location_base ctx.view ctx.fn ~span_off_bits:288 with
        | Error e -> Abort ("mark: " ^ e)
        | Ok base ->
            Dip_opt.Protocol.mark_update ctx.view.Packet.buf ~base ~key;
            Continue)

(* Key 9: host-side verification of source and path over the whole
   OPT span; delivers on success. *)
let f_ver ctx =
  let len = ctx.fn.Fn.field.Field.len_bits in
  if len < 544 || (len - 416) mod 128 <> 0 then
    Abort "ver: field must span 416 + 128*hops bits"
  else
    match fn_location_base ctx.view ctx.fn ~span_off_bits:0 with
    | Error e -> Abort ("ver: " ^ e)
    | Ok base -> (
        let hops = (len - 416) / 128 in
        let session_id = Dip_opt.Header.get_session_id ctx.view.Packet.buf ~base in
        match Hashtbl.find_opt ctx.env.Env.opt_sessions session_id with
        | None -> Abort "unknown-session"
        | Some (session_keys, dest_key) -> (
            if List.length session_keys <> hops then Abort "session-hop-mismatch"
            else
              match
                Dip_opt.Protocol.verify ~alg:ctx.env.Env.opt_alg
                  ctx.view.Packet.buf ~base ~hops ~session_keys ~dest_key
                  ~payload:(Some (Packet.payload ctx.view))
              with
              | Ok () -> Deliver_local
              | Error f ->
                  Abort
                    (Format.asprintf "opt-verify-failed: %a"
                       Dip_opt.Protocol.pp_failure f)))

(* --- XIA (keys 10-11) --- *)

(* Run [f ctx b pos len] on the target's bytes: the packet's own
   when the target is byte-aligned (every realization's), else an
   MSB-aligned copy. [f] is a toplevel function, so no closure. *)
let on_target (ctx : ctx) f =
  let t = ctx.target and buf = ctx.view.Packet.buf in
  if Field.is_byte_aligned t then f ctx (Bitbuf.to_bytes buf) (t.off_bits / 8) (t.len_bits / 8)
  else
    let s = Bitbuf.get_field buf t in
    f ctx (Bytes.unsafe_of_string s) 0 (String.length s)

let write_xia_ptr ctx ptr =
  (* The pointer is the first byte of the target field. *)
  Bitbuf.set_uint ctx.view.Packet.buf
    (Field.v ~off_bits:ctx.target.Field.off_bits ~len_bits:8)
    (Int64.of_int ptr)

let dag_on ctx b pos len =
  match Dip_xia.Router.decode_slice b ~pos ~len with
  | Error e -> Abort ("dag: " ^ e)
  | Ok (dag, ptr, _) -> (
      (* Leave the decode for F_intent, keyed by the bytes it came
         from; the pointer byte is not part of the key. *)
      ctx.scratch.dag <- Some (Bytes.sub_string b (pos + 1) (len - 1), dag);
      match Dip_xia.Router.step ctx.env.Env.xia dag ~ptr with
      | Dip_xia.Router.Forward (port, ptr') ->
          write_xia_ptr ctx ptr';
          Set_route [ port ]
      | Dip_xia.Router.Deliver ptr' ->
          (* Reached the intent's owner: record progress and let
             F_intent decide delivery. *)
          write_xia_ptr ctx ptr';
          Continue
      | Dip_xia.Router.Discard reason -> Abort ("dag: " ^ reason))

(* Key 10: parse the XIA DAG in the target field and forward by
   fallback, updating the address pointer in place. *)
let f_dag ctx = on_target ctx dag_on

(* Whether the bytes of [b] from [pos + i] on continue [w] from [i]. *)
let rec equal_at b pos w i =
  i = String.length w || (Bytes.get b (pos + i) = w.[i] && equal_at b pos w (i + 1))

let intent_at ctx dag ptr =
  if ptr > Dip_xia.Dag.node_count dag then Abort "intent: bad pointer"
  else if ptr = Dip_xia.Dag.intent_index dag then
    if Dip_xia.Router.is_local ctx.env.Env.xia (Dip_xia.Dag.intent dag) then
      Deliver_local
    else Abort "intent-not-local"
  else Continue

(* F_dag's DAG is reused while the target bytes after the pointer
   byte are the ones it was decoded from; the pointer is re-read. *)
let intent_on ctx b pos len =
  match ctx.scratch.dag with
  | Some (wire, dag) when len - 1 = String.length wire && equal_at b (pos + 1) wire 0 ->
      intent_at ctx dag (Bytes.get_uint8 b pos)
  | _ -> (
      match Dip_xia.Router.decode_slice b ~pos ~len with
      | Error e -> Abort ("intent: " ^ e)
      | Ok (dag, ptr, _) -> intent_at ctx dag ptr)

(* Key 11: handle the intent — deliver when the pointer has reached
   an intent this node owns. *)
let f_intent ctx = on_target ctx intent_on

(* --- F_pass (key 12, §2.4) --- *)

let label_input ~locations ~(label_field : Field.t) =
  (* Hash the locations region with the label field zeroed, so the
     label commits to everything else the packet's FNs will read. *)
  let buf = Bitbuf.of_string locations in
  Bitbuf.set_field buf label_field (String.make ((label_field.Field.len_bits + 7) / 8) '\000');
  Bitbuf.to_string buf

let compute_pass_label key ~locations ~label_field =
  if label_field.Field.len_bits <> 32 then
    invalid_arg "compute_pass_label: label must be 32 bits";
  Dip_crypto.Siphash.hash32 key (label_input ~locations ~label_field)

(* Key 12 (§2.4): verify the source label over the FN-locations
   region; drops forged packets when enabled, free when disabled. *)
let f_pass ctx =
  if not ctx.env.Env.pass_enabled then Continue
  else if ctx.fn.Fn.field.Field.len_bits <> 32 then
    Abort "pass: label must be 32 bits"
  else
    match ctx.env.Env.pass_key with
    | None -> Abort "pass: no key configured"
    | Some key ->
        let loc_len = ctx.view.Packet.header.Header.fn_loc_len in
        let locations =
          Bitbuf.get_field ctx.view.Packet.buf
            (Field.v ~off_bits:(8 * ctx.view.Packet.loc_base)
               ~len_bits:(8 * loc_len))
        in
        let expected =
          compute_pass_label key ~locations ~label_field:ctx.fn.Fn.field
        in
        let got = Int64.to_int32 (Bitbuf.get_uint ctx.view.Packet.buf ctx.target) in
        if Int32.equal expected got then Continue else Abort "pass-verify-failed"

(* --- F_cc (key 13): NetFence-style congestion policing --- *)

(* Enforce the per-sender token bucket at bottleneck routers, mark
   or drop over-rate packets, and MAC-stamp the feedback. *)
let f_cc ctx =
  if ctx.fn.Fn.field.Field.len_bits <> Dip_netfence.Header.size_bits then
    Abort "cc: field must be a NetFence header"
  else
    match ctx.env.Env.netfence with
    | None -> Continue (* not a bottleneck router: leave feedback alone *)
    | Some policer -> (
        match fn_location_base ctx.view ctx.fn ~span_off_bits:0 with
        | Error e -> Abort ("cc: " ^ e)
        | Ok base -> (
            let size = Bitbuf.length ctx.view.Packet.buf in
            match
              Dip_netfence.Policer.police policer ctx.view.Packet.buf ~base
                ~now:ctx.now ~size
            with
            | Dip_netfence.Policer.Pass | Dip_netfence.Policer.Marked ->
                Continue
            | Dip_netfence.Policer.Dropped -> Abort "cc-rate-exceeded"))

(* --- F_tel (key 14): in-band telemetry --- *)

(* Append this node's telemetry record to the packet's telemetry
   region (best-effort, never blocks). *)
let f_tel ctx =
  match fn_location_base ctx.view ctx.fn ~span_off_bits:0 with
  | Error e -> Abort ("tel: " ^ e)
  | Ok base ->
      let region_bytes = ctx.fn.Fn.field.Field.len_bits / 8 in
      if ctx.fn.Fn.field.Field.len_bits mod 8 <> 0 || region_bytes < 9 then
        Abort "tel: region must be byte-sized and hold one record"
      else begin
        (* Telemetry is strictly best-effort: overflow sets a bit and
           forwarding continues. *)
        ignore
          (Telemetry.append ctx.view.Packet.buf ~base ~region_bytes
             {
               Telemetry.node_id = ctx.env.Env.node_id;
               timestamp = Int32.of_float (ctx.now *. 1e6);
               queue_depth = ctx.env.Env.queue_depth ();
             });
        Continue
      end

(* --- F_hvf (key 15): EPIC per-hop validation --- *)

(* Check this hop's HVF against the key derived from (source,
   timestamp), dropping the packet on mismatch, and replace it with
   its verified form. *)
let f_hvf ctx =
  let len = ctx.fn.Fn.field.Field.len_bits in
  if len < 224 || (len - 192) mod 32 <> 0 then
    Abort "hvf: field must span 192 + 32*hops bits"
  else
    match ctx.env.Env.opt_secret with
    | None -> Abort "no-hvf-identity"
    | Some secret -> (
        match fn_location_base ctx.view ctx.fn ~span_off_bits:0 with
        | Error e -> Abort ("hvf: " ^ e)
        | Ok base ->
            let hops = (len - 192) / 32 in
            let hop = ctx.env.Env.opt_hop in
            if hop > hops then Abort "hvf: hop index beyond region"
            else
              let key =
                Dip_epic.Protocol.derive_key secret
                  ~src:(Dip_epic.Header.get_src ctx.view.Packet.buf ~base)
                  ~timestamp:
                    (Dip_epic.Header.get_timestamp ctx.view.Packet.buf ~base)
              in
              (* "Every packet is checked": an invalid HVF is dropped
                 at the router, not at the destination. *)
              (match
                 Dip_epic.Protocol.router_check ctx.view.Packet.buf ~base ~hop
                   ~key
               with
              | Dip_epic.Protocol.Forwarded -> Continue
              | Dip_epic.Protocol.Rejected -> Abort "hvf-rejected"))

(* --- F_cust (key 16): DTN custody transfer --- *)

(* Ignorable by design (§2.4): a router without a custody store — or
   without the operation installed at all — leaves the region alone
   and the packet falls back to pure end-to-end recovery. A custodian
   stores a copy of the whole packet, marks the in-custody bit, and
   ACKs one hop upstream through the scratch emit channel (the packet
   itself must keep forwarding, so the ACK cannot be a [Respond]). *)
let f_cust ctx =
  if ctx.fn.Fn.field.Field.len_bits <> Custody.region_bits then
    Abort "cust: field must be 40 bits"
  else if ctx.target.Field.off_bits mod 8 <> 0 then
    Abort "cust: region not byte aligned"
  else begin
    let buf = ctx.view.Packet.buf in
    let base = ctx.target.Field.off_bits / 8 in
    let flags = Custody.read_flags buf ~base in
    let bundle = Custody.read_bundle buf ~base in
    (* The store's key: the id as an [int], converted once here, so
       the probes below box nothing. *)
    let key = Int32.to_int bundle in
    let ack_upstream () =
      ctx.scratch.emit <-
        (ctx.ingress, Custody.build_ack ~bundle) :: ctx.scratch.emit;
      Dip_obs.Metrics.Counter.incr ctx.env.Env.counts.custody_ack
    in
    if flags land Custody.flag_ack <> 0 then begin
      (* Hop-local custody ACK: downstream holds the bundle now. *)
      (match ctx.env.Env.custody with
      | Some store -> ignore (Dip_tables.Custody_store.release store key)
      | None -> ());
      Silent
    end
    else if flags land Custody.flag_request = 0 then Continue
    else
      match ctx.env.Env.custody with
      | None -> Continue (* not a custodian: forward untouched *)
      | Some store ->
          if Dip_tables.Custody_store.mem store key then begin
            (* Upstream retransmitted: its custody ACK was lost.
               Re-ACK so the upstream copy is released. *)
            ack_upstream ();
            Continue
          end
          else begin
            Bitbuf.set_uint8 buf base (flags lor Custody.flag_in_custody);
            match
              Dip_tables.Custody_store.take store key (Bitbuf.copy buf)
            with
            | `Stored ->
                ack_upstream ();
                Continue
            | `Rejected ->
                (* Store bounds refuse the bundle: upstream keeps
                   custody, we forward without taking over. *)
                Bitbuf.set_uint8 buf base flags;
                Continue
          end
  end

let default_registry () =
  let r = Registry.empty () in
  Registry.install r Opkey.F_32_match f_32_match;
  Registry.install r Opkey.F_128_match f_128_match;
  Registry.install r Opkey.F_source f_source;
  Registry.install r Opkey.F_fib f_fib;
  Registry.install r Opkey.F_pit f_pit;
  Registry.install r Opkey.F_parm f_parm;
  Registry.install r Opkey.F_mac f_mac;
  Registry.install r Opkey.F_mark f_mark;
  Registry.install r Opkey.F_ver f_ver;
  Registry.install r Opkey.F_dag f_dag;
  Registry.install r Opkey.F_intent f_intent;
  Registry.install r Opkey.F_pass f_pass;
  Registry.install r Opkey.F_cc f_cc;
  Registry.install r Opkey.F_tel f_tel;
  Registry.install r Opkey.F_hvf f_hvf;
  Registry.install r Opkey.F_cust f_cust;
  r

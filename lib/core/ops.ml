module Bitbuf = Dip_bitbuf.Bitbuf
module Field = Dip_bitbuf.Field
module Ipaddr = Dip_tables.Ipaddr
module Pit = Dip_tables.Pit
open Registry

(* Each operation is staged: applied once, when a program is compiled,
   to its FN and its absolute target, it settles every check that
   depends only on those and returns what runs per packet. *)

(* An operation whose outcome its FN and target decide. *)
let const outcome : ctx -> outcome = fun _ -> outcome
let abort reason = const (Abort reason)
let continue = const Continue

(* A 32-bit target's value as an unsigned [int], never boxed: a
   byte-aligned one (every realization's) is a single load. *)
let u32 buf (target : Field.t) =
  let off = target.Field.off_bits in
  if off land 7 = 0 then Int32.to_int (Bitbuf.get_uint32 buf (off lsr 3)) land 0xFFFF_FFFF
  else Int64.to_int (Bitbuf.get_uint buf target)

(* --- IP forwarding (keys 1-3) --- *)

(* A route to one port is the common outcome; for ports below 256 it
   is shared instead of allocated per packet, around the PIT's shared
   one-port list. *)
let one_port = Array.init 256 (fun p -> Set_route (Pit.singleton p))
let route_to p = if p >= 0 && p < 256 then one_port.(p) else Set_route [ p ]

(* Key 1: 32-bit destination match against the v4 LPM table; local
   address → delivery. *)
let f_32_match (fn : Fn.t) target =
  if fn.Fn.field.Field.len_bits <> 32 then abort "f32: field must be 32 bits"
  else fun ctx ->
    let dst = u32 ctx.view.Packet.buf target in
    match ctx.env.Env.local_v4 with
    | Some a when Int32.to_int a land 0xFFFF_FFFF = dst -> Deliver_local
    | _ ->
        (* DIR-24-8 fast path: id-based lookup is allocation-free. *)
        let id = Dip_tables.Fib.V4.lookup_int ctx.env.Env.v4_routes dst in
        if id < 0 then Abort "no-route"
        else route_to (Dip_tables.Fib.V4.value ctx.env.Env.v4_routes id)

(* Key 2: 128-bit destination match against the v6 LPM table. A
   byte-aligned target (every realization's) is read as two 64-bit
   halves in place. *)
let f_128_match (fn : Fn.t) (target : Field.t) =
  if fn.Fn.field.Field.len_bits <> 128 then abort "f128: field must be 128 bits"
  else
    let match_v6 ctx hi lo =
      match ctx.env.Env.local_v6 with
      | Some (h, l) when (h : int64) = hi && (l : int64) = lo -> Deliver_local
      | _ ->
          let id = Dip_tables.Fib.V6.lookup_id ctx.env.Env.v6_routes hi lo in
          if id < 0 then Abort "no-route"
          else route_to (Dip_tables.Fib.V6.value ctx.env.Env.v6_routes id)
    in
    if Field.is_byte_aligned target then
      let off = target.Field.off_bits / 8 in
      fun ctx ->
        let b = Bitbuf.to_bytes ctx.view.Packet.buf in
        match_v6 ctx (Bytes.get_int64_be b off) (Bytes.get_int64_be b (off + 8))
    else fun ctx ->
      let hi, lo = Ipaddr.V6.of_wire (Bitbuf.get_field ctx.view.Packet.buf target) in
      match_v6 ctx hi lo

(* Key 3: names where the source lives (32 or 128 bits). The source
   field only needs to be well-formed; routers do not act on it. *)
let f_source (fn : Fn.t) _ =
  match fn.Fn.field.Field.len_bits with
  | 32 | 128 -> continue
  | _ -> abort "source: field must be 32 or 128 bits"

(* --- NDN (keys 4-5): the prototype forwards on 32-bit hashed
   content names (§4.1). --- *)

(* A content-store hit turns the interest into a data packet sent
   back out of the ingress port: same 32-bit name in the locations,
   F_PIT replacing F_FIB, cached bytes as payload, the interest's
   live hop limit (byte 2 of the packet, see {!Registry.ctx}). *)
let data_packet_for ctx ~hash ~content =
  let loc = Bytes.create 4 in
  Bytes.set_int32_be loc 0 (Int32.of_int hash);
  Packet.build
    ~hop_limit:(Bitbuf.get_uint8 ctx.view.Packet.buf 2)
    ~fns:[ Fn.v ~loc:0 ~len:32 Opkey.F_pit ]
    ~locations:(Bytes.to_string loc) ~payload:content ()

(* Key 4: content-name FIB match for interest packets — records the
   receiving port in the PIT, then forwards on the FIB hit (§3,
   NDN). With a content store configured, a cache hit answers
   directly (§4.1 footnote 2). The PIT, the FIB's hash index and the
   content store are keyed by the name hash as an unsigned [int]. *)
let f_fib (fn : Fn.t) target =
  if fn.Fn.field.Field.len_bits <> 32 then abort "fib: field must be 32 bits"
  else fun ctx ->
    let hash = u32 ctx.view.Packet.buf target in
    match Env.find_content ctx.env hash with
    | Some content -> Respond (data_packet_for ctx ~hash ~content)
    | None -> (
        (* Record the receiving port in the PIT (paper §3), then
           match the FIB. A PIT entry is new router state, charged
           against the §2.4 budget. *)
        if not (Guard.charge_state ctx.budget ~bytes:16) then
          Abort "guard-state-exhausted"
        else
          match
            Pit.insert_int ctx.env.Env.pit ~key:hash ~port:ctx.ingress ~now:ctx.now
              ~lifetime:ctx.env.Env.interest_lifetime
          with
          | Pit.Aggregated -> Silent
          | Pit.Rejected -> Abort "pit-full"
          | Pit.Forwarded -> (
              match Dip_tables.Name_fib.find_hash ctx.env.Env.fib hash with
              | Some port -> route_to port
              | None ->
                  ignore (Pit.consume_int ctx.env.Env.pit ~key:hash ~now:ctx.now);
                  Abort "no-fib-entry"))

(* Key 5: PIT match for data packets — forward to the recorded
   request ports, or discard on a miss (§3, NDN). *)
let f_pit (fn : Fn.t) target =
  if fn.Fn.field.Field.len_bits <> 32 then abort "pit: field must be 32 bits"
  else fun ctx ->
    let hash = u32 ctx.view.Packet.buf target in
    match Pit.consume_int ctx.env.Env.pit ~key:hash ~now:ctx.now with
    | [] -> Abort "unsolicited-data"
    | ports ->
        (match ctx.env.Env.cache with
        | Some _ -> Env.store_content ctx.env hash (Packet.payload ctx.view)
        | None -> ());
        (match ports with [ p ] -> route_to p | _ -> Set_route ports)

(* --- OPT (keys 6-9) --- *)

(* An FN's target sits [span_off_bits] into its protocol region: the
   region's byte offset within the whole packet, or the [Abort],
   prefixed with [what], that the operation returns instead. *)
let region_base what (fn : Fn.t) (target : Field.t) ~span_off_bits =
  let rel = fn.Fn.field.Field.off_bits - span_off_bits in
  if rel < 0 then Error (Abort (what ^ ": FN target before region start"))
  else if rel mod 8 <> 0 then Error (Abort (what ^ ": region not byte aligned"))
  else Ok ((target.Field.off_bits - span_off_bits) / 8)

(* Key 6: derive the dynamic OPT key from the session id in the
   target field with the router's local secret (§3, OPT). The id's 8
   bytes (the field's low half) go into the identity's frame, the key
   is derived from the frame's midstate and expanded into the
   identity's schedule, all in place; F_MAC and F_mark read the
   schedule through the preallocated option. *)
let f_parm (fn : Fn.t) target =
  if fn.Fn.field.Field.len_bits <> 128 then abort "parm: field must be 128 bits"
  else
    let base = region_base "parm" fn target ~span_off_bits:128 in
    fun ctx ->
      match (ctx.env.Env.opt_identity, base) with
      | None, _ -> Abort "no-opt-identity"
      | Some _, Error a -> a
      | Some id, Ok base ->
          Dip_crypto.Prf.derive_into id.Env.session_frame
            (Bitbuf.to_bytes ctx.view.Packet.buf)
            ~off:(base + 24) id.Env.derived ~dst_off:0;
          Dip_opt.Protocol.expand_into id.Env.derived id.Env.opt_key;
          ctx.scratch.opt_key <- id.Env.opt_loaded;
          Continue

(* Key 7: MAC over the target span, deposited in this router's OPV
   slot. Requires {i F_parm} to have run first. *)
let f_mac (fn : Fn.t) target =
  if fn.Fn.field.Field.len_bits <> 416 then abort "mac: field must be 416 bits"
  else
    let base = region_base "mac" fn target ~span_off_bits:0 in
    (* The region runs from the target to the end of the locations. *)
    let rel = fn.Fn.field.Field.off_bits in
    fun ctx ->
      match (ctx.scratch.opt_key, base) with
      | None, _ -> Abort "parm-not-loaded"
      | Some _, Error a -> a
      | Some key, Ok base ->
          let hop = ctx.env.Env.opt_hop in
          let opv_end_bits = 416 + (128 * hop) in
          let region_bits = (8 * ctx.view.Packet.header.Header.fn_loc_len) - rel in
          if opv_end_bits > region_bits then Abort "opv-slot-out-of-range"
          else begin
            Dip_opt.Protocol.mac_update ctx.view.Packet.buf ~base ~hop ~key;
            Continue
          end

(* Key 8: fold the router's key into the PVF (the mark update). *)
let f_mark (fn : Fn.t) target =
  if fn.Fn.field.Field.len_bits <> 128 then abort "mark: field must be 128 bits"
  else
    let base = region_base "mark" fn target ~span_off_bits:288 in
    fun ctx ->
      match (ctx.scratch.opt_key, base) with
      | None, _ -> Abort "parm-not-loaded"
      | Some _, Error a -> a
      | Some key, Ok base ->
          Dip_opt.Protocol.mark_update ctx.view.Packet.buf ~base ~key;
          Continue

(* Key 9: host-side verification of source and path over the whole
   OPT span; delivers on success. *)
let f_ver (fn : Fn.t) target =
  let len = fn.Fn.field.Field.len_bits in
  if len < 544 || (len - 416) mod 128 <> 0 then
    abort "ver: field must span 416 + 128*hops bits"
  else
    match region_base "ver" fn target ~span_off_bits:0 with
    | Error a -> const a
    | Ok base -> (
        let hops = (len - 416) / 128 in
        fun ctx ->
          let session_id = Dip_opt.Header.get_session_id ctx.view.Packet.buf ~base in
          match Hashtbl.find_opt ctx.env.Env.opt_sessions session_id with
          | None -> Abort "unknown-session"
          | Some (session_keys, dest_key) -> (
              if List.length session_keys <> hops then Abort "session-hop-mismatch"
              else
                match
                  Dip_opt.Protocol.verify ~alg:ctx.env.Env.opt_alg ctx.view.Packet.buf
                    ~base ~hops ~session_keys ~dest_key
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
   MSB-aligned copy. *)
let on_target (target : Field.t) f =
  if Field.is_byte_aligned target then
    let pos = target.Field.off_bits / 8 and len = target.Field.len_bits / 8 in
    fun ctx -> f ctx (Bitbuf.to_bytes ctx.view.Packet.buf) pos len
  else fun ctx ->
    let s = Bitbuf.get_field ctx.view.Packet.buf target in
    f ctx (Bytes.unsafe_of_string s) 0 (String.length s)

module Router = Dip_xia.Router

(* The pointer is the first byte of the target field, written as a
   byte when the target is byte-aligned. *)
let write_pointer (target : Field.t) =
  if Field.is_byte_aligned target then
    let off = target.Field.off_bits / 8 in
    fun ctx ptr -> Bitbuf.set_uint8 ctx.view.Packet.buf off ptr
  else
    let pointer = Field.v ~off_bits:target.Field.off_bits ~len_bits:8 in
    fun ctx ptr -> Bitbuf.set_uint ctx.view.Packet.buf pointer (Int64.of_int ptr)

(* Key 10: walk the XIA DAG in the target field where it lies and
   forward by fallback, updating the address pointer in place. *)
let f_dag _ target =
  let write_ptr = write_pointer target in
  on_target target (fun ctx b pos len ->
      let xia = ctx.env.Env.xia in
      match Router.check xia b ~pos ~len with
      | Router.Empty -> Abort "dag: empty packet"
      | Router.Malformed -> Abort "dag: malformed DAG"
      | Router.Bad_pointer -> Abort "dag: bad pointer"
      | Router.Valid ->
          let ptr = Router.advance xia b ~pos in
          if Router.at_intent b ~pos ptr then begin
            (* Reached the intent's owner: record progress and let
               F_intent decide delivery. *)
            write_ptr ctx ptr;
            Continue
          end
          else
            let port = Router.next_hop xia b ~pos ~ptr in
            if port < 0 then Abort "dag: dead-end"
            else begin
              write_ptr ctx ptr;
              route_to port
            end)

(* Key 11: handle the intent — deliver when the pointer has reached
   an intent this node owns. *)
let f_intent _ target =
  on_target target (fun ctx b pos len ->
      let xia = ctx.env.Env.xia in
      match Router.check xia b ~pos ~len with
      | Router.Empty -> Abort "intent: empty packet"
      | Router.Malformed -> Abort "intent: malformed DAG"
      | Router.Bad_pointer -> Abort "intent: bad pointer"
      | Router.Valid ->
          if not (Router.at_intent b ~pos (Bytes.get_uint8 b pos)) then Continue
          else if Router.owns_intent xia b ~pos then Deliver_local
          else Abort "intent-not-local")

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
let f_pass (fn : Fn.t) target =
  let label_field = fn.Fn.field in
  fun ctx ->
    if not ctx.env.Env.pass_enabled then Continue
    else if label_field.Field.len_bits <> 32 then Abort "pass: label must be 32 bits"
    else
      match ctx.env.Env.pass_key with
      | None -> Abort "pass: no key configured"
      | Some key ->
          let loc_len = ctx.view.Packet.header.Header.fn_loc_len in
          let locations =
            Bitbuf.get_field ctx.view.Packet.buf
              (Field.v ~off_bits:(8 * ctx.view.Packet.loc_base) ~len_bits:(8 * loc_len))
          in
          let expected = compute_pass_label key ~locations ~label_field in
          if Int32.to_int expected land 0xFFFF_FFFF = u32 ctx.view.Packet.buf target then
            Continue
          else Abort "pass-verify-failed"

(* --- F_cc (key 13): NetFence-style congestion policing --- *)

(* Enforce the per-sender token bucket at bottleneck routers, mark
   or drop over-rate packets, and MAC-stamp the feedback. *)
let f_cc (fn : Fn.t) target =
  if fn.Fn.field.Field.len_bits <> Dip_netfence.Header.size_bits then
    abort "cc: field must be a NetFence header"
  else
    let base = region_base "cc" fn target ~span_off_bits:0 in
    fun ctx ->
      match (ctx.env.Env.netfence, base) with
      | None, _ -> Continue (* not a bottleneck router: leave feedback alone *)
      | Some _, Error a -> a
      | Some policer, Ok base -> (
          let size = Bitbuf.length ctx.view.Packet.buf in
          match
            Dip_netfence.Policer.police policer ctx.view.Packet.buf ~base ~now:ctx.now
              ~size
          with
          | Dip_netfence.Policer.Pass | Dip_netfence.Policer.Marked -> Continue
          | Dip_netfence.Policer.Dropped -> Abort "cc-rate-exceeded")

(* --- F_tel (key 14): in-band telemetry --- *)

(* Append this node's telemetry record to the packet's telemetry
   region (best-effort, never blocks). *)
let f_tel (fn : Fn.t) target =
  match region_base "tel" fn target ~span_off_bits:0 with
  | Error a -> const a
  | Ok base ->
      let region_bytes = fn.Fn.field.Field.len_bits / 8 in
      if fn.Fn.field.Field.len_bits mod 8 <> 0 || region_bytes < 9 then
        abort "tel: region must be byte-sized and hold one record"
      else fun ctx ->
        (* Telemetry is strictly best-effort: overflow sets a bit and
           forwarding continues. *)
        ignore
          (Telemetry.write ctx.view.Packet.buf ~base ~region_bytes
             ~node_id:ctx.env.Env.node_id
             ~timestamp:(Int32.to_int (Int32.of_float (ctx.now *. 1e6)))
             ~queue_depth:(ctx.env.Env.queue_depth ()));
        Continue

(* --- F_hvf (key 15): EPIC per-hop validation --- *)

(* Check this hop's HVF against the key derived from (source,
   timestamp), dropping the packet on mismatch, and replace it with
   its verified form. The region's first 8 bytes (source ∥ timestamp)
   go into the identity's frame; the hop key is derived, expanded and
   checked in the identity's buffers. *)
let f_hvf (fn : Fn.t) target =
  let len = fn.Fn.field.Field.len_bits in
  if len < 224 || (len - 192) mod 32 <> 0 then
    abort "hvf: field must span 192 + 32*hops bits"
  else
    let base = region_base "hvf" fn target ~span_off_bits:0 in
    let hops = (len - 192) / 32 in
    fun ctx ->
      match (ctx.env.Env.opt_identity, base) with
      | None, _ -> Abort "no-hvf-identity"
      | Some _, Error a -> a
      | Some id, Ok base -> (
          let hop = ctx.env.Env.opt_hop in
          if hop > hops then Abort "hvf: hop index beyond region"
          else
            let buf = ctx.view.Packet.buf in
            Dip_crypto.Prf.derive_into id.Env.hop_frame (Bitbuf.to_bytes buf) ~off:base
              id.Env.derived ~dst_off:0;
            Dip_crypto.Even_mansour.expand_key_into id.Env.derived id.Env.hop_key;
            (* "Every packet is checked": an invalid HVF is dropped
               at the router, not at the destination. *)
            match Dip_epic.Protocol.router_check id.Env.hop_key id.Env.tmp buf ~base ~hop with
            | Dip_epic.Protocol.Forwarded -> Continue
            | Dip_epic.Protocol.Rejected -> Abort "hvf-rejected")

(* --- F_cust (key 16): DTN custody transfer --- *)

(* Ignorable by design (§2.4): a router without a custody store — or
   without the operation installed at all — leaves the region alone
   and the packet falls back to pure end-to-end recovery. A custodian
   stores a copy of the whole packet, marks the in-custody bit, and
   ACKs one hop upstream through the scratch emit channel (the packet
   itself must keep forwarding, so the ACK cannot be a [Respond]). *)
let ack_upstream ctx ~bundle =
  ctx.scratch.emit <-
    Dip_netsim.Sim.Forward (ctx.ingress, Custody.build_ack ~bundle) :: ctx.scratch.emit;
  Dip_obs.Metrics.Counter.incr ctx.env.Env.counts.custody_ack

let f_cust (fn : Fn.t) (target : Field.t) =
  if fn.Fn.field.Field.len_bits <> Custody.region_bits then
    abort "cust: field must be 40 bits"
  else if target.Field.off_bits mod 8 <> 0 then abort "cust: region not byte aligned"
  else
    let base = target.Field.off_bits / 8 in
    fun ctx ->
      let buf = ctx.view.Packet.buf in
      let flags = Custody.read_flags buf ~base in
      let bundle = Custody.read_bundle buf ~base in
      (* The store's key: the id as an [int], converted once here, so
         the probes below box nothing. *)
      let key = Int32.to_int bundle in
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
              ack_upstream ctx ~bundle;
              Continue
            end
            else begin
              Bitbuf.set_uint8 buf base (flags lor Custody.flag_in_custody);
              match Dip_tables.Custody_store.take store key (Bitbuf.copy buf) with
              | `Stored ->
                  ack_upstream ctx ~bundle;
                  Continue
              | `Rejected ->
                  (* Store bounds refuse the bundle: upstream keeps
                     custody, we forward without taking over. *)
                  Bitbuf.set_uint8 buf base flags;
                  Continue
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

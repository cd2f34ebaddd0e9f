module Bitbuf = Dip_bitbuf.Bitbuf

type command =
  | Enable_op of Opkey.t
  | Disable_op of Opkey.t
  | Enable_pass of string
  | Disable_pass
  | Policer_mode_mark
  | Policer_mode_police

let equal_command a b = a = b

let pp_command fmt = function
  | Enable_op k -> Format.fprintf fmt "enable %s" (Opkey.name k)
  | Disable_op k -> Format.fprintf fmt "disable %s" (Opkey.name k)
  | Enable_pass _ -> Format.pp_print_string fmt "enable F_pass (with key)"
  | Disable_pass -> Format.pp_print_string fmt "disable F_pass"
  | Policer_mode_mark -> Format.pp_print_string fmt "policer: mark mode"
  | Policer_mode_police -> Format.pp_print_string fmt "policer: police mode"

let next_header_value = 0xFC

let is_control buf =
  match Header.decode buf with
  | Ok h -> h.Header.next_header = next_header_value
  | Error _ -> false

let command_bytes = function
  | Enable_op k -> Printf.sprintf "\x01%c" (Char.chr (Opkey.to_int k))
  | Disable_op k -> Printf.sprintf "\x02%c" (Char.chr (Opkey.to_int k))
  | Enable_pass key ->
      if String.length key <> 16 then
        invalid_arg "Control: pass key must be 16 bytes";
      "\x03" ^ key
  | Disable_pass -> "\x04"
  | Policer_mode_mark -> "\x05"
  | Policer_mode_police -> "\x06"

let command_of_bytes s =
  if String.length s < 1 then Error "empty command"
  else
    match s.[0] with
    | '\x01' | '\x02' ->
        if String.length s <> 2 then Error "bad op command length"
        else (
          match Opkey.of_int (Char.code s.[1]) with
          | None -> Error "unknown operation key"
          | Some k ->
              Ok (if s.[0] = '\x01' then Enable_op k else Disable_op k))
    | '\x03' ->
        if String.length s <> 17 then Error "bad pass-key length"
        else Ok (Enable_pass (String.sub s 1 16))
    | '\x04' -> if s = "\x04" then Ok Disable_pass else Error "trailing bytes"
    | '\x05' -> if s = "\x05" then Ok Policer_mode_mark else Error "trailing bytes"
    | '\x06' -> if s = "\x06" then Ok Policer_mode_police else Error "trailing bytes"
    | _ -> Error "unknown command tag"

let mac ~key ~seq body =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 seq;
  Dip_crypto.Prf.derive key ~label:"dip-control" (Bytes.to_string b ^ body)

let encode ~key ~seq cmd =
  let body = command_bytes cmd in
  let b = Buffer.create 32 in
  Buffer.add_int64_be b seq;
  Buffer.add_uint16_be b (String.length body);
  Buffer.add_string b body;
  Buffer.add_string b (mac ~key ~seq body);
  Packet.build ~next_header:next_header_value ~fns:[] ~locations:""
    ~payload:(Buffer.contents b) ()

type state = { mutable last : int64 }

let initial_state () = { last = Int64.min_int }
let last_seq s = s.last

let ct_equal a b =
  String.length a = String.length b
  && begin
       let d = ref 0 in
       String.iteri (fun i c -> d := !d lor (Char.code c lxor Char.code b.[i])) a;
       !d = 0
     end

let decode ~key buf =
  match Header.decode buf with
  | Error e -> Error e
  | Ok h ->
      if h.Header.next_header <> next_header_value then Error "not a control packet"
      else
        let s = Bitbuf.to_string buf in
        let off = Header.payload_offset h in
        if String.length s < off + 10 then Error "truncated control payload"
        else
          let seq = String.get_int64_be s off in
          let len = String.get_uint16_be s (off + 8) in
          if String.length s < off + 10 + len + 16 then Error "truncated command"
          else
            let body = String.sub s (off + 10) len in
            let tag = String.sub s (off + 10 + len) 16 in
            if not (ct_equal tag (mac ~key ~seq body)) then
              Error "control MAC verification failed"
            else
              match command_of_bytes body with
              | Error e -> Error e
              | Ok cmd -> Ok (seq, cmd)

let execute ~env ~registry ~master = function
  | Enable_op k as cmd -> (
      match Registry.find master k with
      | Some impl ->
          Registry.install registry k impl;
          (* Enabling (or upgrading) an operation changes verify
             verdicts for every cached program mentioning it. *)
          ignore (Progcache.invalidate_key env.Env.prog_cache k : int);
          Ok cmd
      | None -> Error ("no module image for " ^ Opkey.name k))
  | Disable_op k as cmd ->
      Registry.uninstall registry k;
      ignore (Progcache.invalidate_key env.Env.prog_cache k : int);
      Ok cmd
  | Enable_pass key as cmd ->
      Env.enable_pass env ~key:(Dip_crypto.Siphash.key_of_string key);
      Ok cmd
  | Disable_pass as cmd ->
      Env.disable_pass env;
      Ok cmd
  | Policer_mode_mark as cmd -> (
      match env.Env.netfence with
      | Some p ->
          Dip_netfence.Policer.set_mode p Dip_netfence.Policer.Mark;
          Ok cmd
      | None -> Error "no policer installed")
  | Policer_mode_police as cmd -> (
      match env.Env.netfence with
      | Some p ->
          Dip_netfence.Policer.set_mode p Dip_netfence.Policer.Police;
          Ok cmd
      | None -> Error "no policer installed")

let apply ~key ~state ~env ~registry ~master buf =
  match decode ~key buf with
  | Error e -> Error e
  | Ok (seq, cmd) ->
      if seq <= state.last then Error "replayed or stale command"
      else begin
        state.last <- seq;
        execute ~env ~registry ~master cmd
      end

let handler ~key ~env ~registry ~master inner =
  let state = initial_state () in
  let c = Dip_obs.Metrics.counter env.Env.counters in
  let applied = c "control.applied" and rejected = c "control.rejected" in
  fun sim ~now ~ingress packet ->
    if is_control packet then
      match apply ~key ~state ~env ~registry ~master packet with
      | Ok _ ->
          Dip_obs.Metrics.Counter.incr applied;
          [ Dip_netsim.Sim.Consume ]
      | Error reason ->
          Dip_obs.Metrics.Counter.incr rejected;
          [ Dip_netsim.Sim.Drop ("control: " ^ reason) ]
    else inner sim ~now ~ingress packet

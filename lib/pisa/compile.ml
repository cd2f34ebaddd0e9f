module Bitbuf = Dip_bitbuf.Bitbuf
open Dip_core

type slot = {
  fn : Fn.t;
  impl : Registry.impl;
  target : Dip_bitbuf.Field.t; (* preset absolute slice *)
}

type t = {
  header : Header.t;
  fns : Fn.t array;
  loc_base : int;
  slots : slot list; (* router-side, pre-resolved, in order *)
  shape : string; (* bytes that must match: fn_num, param, FN defs *)
}

let shape_bytes buf (header : Header.t) =
  let s = Bitbuf.to_string buf in
  (* fn_num byte, the 16-bit parameter word, and the FN definition
     region — everything that fixes the preset slices. The hop limit
     and next-header bytes are allowed to vary. *)
  String.concat ""
    [
      String.sub s 1 1;
      String.sub s 3 2;
      String.sub s Header.basic_size (header.Header.fn_num * Fn.size);
    ]

let compile ~registry ~template =
  match Packet.parse template with
  | Error e -> Error e
  | Ok view ->
      let header = view.Packet.header in
      let rec resolve i acc =
        if i = Array.length view.Packet.fns then Ok (List.rev acc)
        else
          let fn = view.Packet.fns.(i) in
          if fn.Fn.tag = Fn.Host then resolve (i + 1) acc
          else
            match Registry.find registry fn.Fn.key with
            | Some impl ->
                let target = Packet.locations_field view fn in
                resolve (i + 1) ({ fn; impl; target } :: acc)
            | None ->
                if Engine.mandatory fn.Fn.key then
                  Error
                    (Printf.sprintf "cannot compile: %s unsupported"
                       (Opkey.name fn.Fn.key))
                else resolve (i + 1) acc
      in
      (match resolve 0 [] with
      | Error e -> Error e
      | Ok slots ->
          Ok
            {
              header;
              fns = view.Packet.fns;
              loc_base = view.Packet.loc_base;
              slots;
              shape = shape_bytes template header;
            })

let fn_count t = List.length t.slots
let keys t = List.map (fun s -> s.fn.Fn.key) t.slots

let matches t buf =
  Bitbuf.length buf >= Header.header_length t.header
  && String.equal t.shape (shape_bytes buf t.header)

(* Mirrors Engine.run's outcome combination; the per-packet parse and
   registry dispatch are gone — that is the point of the ablation. *)
let run t env ~now ~ingress buf =
  if not (matches t buf) then Engine.Dropped "shape-mismatch"
  else begin
    let view =
      {
        Packet.header = { t.header with Header.hop_limit = Bitbuf.get_uint8 buf 2 };
        fns = t.fns;
        loc_base = t.loc_base;
        buf;
      }
    in
    let budget = Guard.start env.Env.guard in
    let scratch = env.Env.ctx.Env.scratch in
    scratch.Registry.opt_key <- None;
    let route = ref None in
    let rec loop = function
      | [] -> (
          match !route with
          | Some (`Ports ports) ->
              if Header.decrement_hop_limit buf then Engine.Forwarded ports
              else Engine.Dropped "hop-limit-expired"
          | Some `Local -> Engine.Delivered
          | None -> Engine.Dropped "no-forwarding-decision")
      | slot :: rest -> (
          if not (Guard.charge_op budget) then
            Engine.Dropped "guard-ops-exhausted"
          else
            let ctx =
              {
                Registry.env;
                view;
                fn = slot.fn;
                target = slot.target;
                ingress;
                now;
                scratch;
                budget;
              }
            in
            match slot.impl ctx with
            | Registry.Continue -> loop rest
            | Registry.Set_route ports ->
                if !route = None then route := Some (`Ports ports);
                loop rest
            | Registry.Deliver_local ->
                if !route = None then route := Some `Local;
                loop rest
            | Registry.Respond pkt -> Engine.Responded pkt
            | Registry.Silent -> Engine.Quiet
            | Registry.Abort reason -> Engine.Dropped reason)
    in
    loop t.slots
  end

let estimate t ?alg ?parallel config =
  Cost.estimate config ?alg ?parallel
    ~header_bytes:(Header.header_length t.header)
    (keys t)

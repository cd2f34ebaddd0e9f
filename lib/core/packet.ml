module Bitbuf = Dip_bitbuf.Bitbuf
module Field = Dip_bitbuf.Field

type view = {
  header : Header.t;
  fns : Fn.t array;
  loc_base : int;
  mutable buf : Bitbuf.t;
}

let fn_in_bounds ~loc_len_bytes (fn : Fn.t) =
  Field.last_bit fn.Fn.field <= 8 * loc_len_bytes

let build ?(next_header = 0) ?(hop_limit = 64) ?(parallel = false) ~fns
    ~locations ~payload () =
  let fn_num = List.length fns in
  if fn_num > 255 then invalid_arg "Dip.Packet.build: more than 255 FNs";
  let fn_loc_len = String.length locations in
  if fn_loc_len > Header.max_fn_loc_len then
    invalid_arg "Dip.Packet.build: FN locations exceed 1023 bytes";
  List.iter
    (fun fn ->
      if not (fn_in_bounds ~loc_len_bytes:fn_loc_len fn) then
        invalid_arg
          (Format.asprintf
             "Dip.Packet.build: FN %a exceeds the %d-byte locations region"
             Fn.pp fn fn_loc_len))
    fns;
  let header =
    { Header.next_header; fn_num; hop_limit; parallel; fn_loc_len }
  in
  let total = Header.header_length header + String.length payload in
  let buf = Bitbuf.create total in
  Header.encode header buf;
  List.iteri (fun i fn -> Fn.encode fn buf ~pos:(Header.fn_offset i)) fns;
  let loc_off = Header.locations_offset header in
  Bitbuf.blit ~src:(Bitbuf.of_string locations) ~src_off:0 ~dst:buf
    ~dst_off:loc_off ~len:fn_loc_len;
  Bitbuf.blit ~src:(Bitbuf.of_string payload) ~src_off:0 ~dst:buf
    ~dst_off:(Header.payload_offset header) ~len:(String.length payload);
  buf

(* Decode the FN definitions straight into an array — the hot path
   must not build an intermediate list per packet. *)
let parse_fns ?known buf (header : Header.t) =
  let n = header.Header.fn_num in
  let decode i =
    let pos = Header.fn_offset i in
    let memo = match known with Some f -> f buf pos | None -> None in
    match (match memo with Some fn -> Ok fn | None -> Fn.decode buf ~pos) with
    | Error e -> Error (Printf.sprintf "FN %d: %s" (i + 1) e)
    | Ok fn ->
        if fn_in_bounds ~loc_len_bytes:header.Header.fn_loc_len fn then Ok fn
        else
          Error (Printf.sprintf "FN %d: target exceeds locations region" (i + 1))
  in
  if n = 0 then Ok [||]
  else
    match decode 0 with
    | Error e -> Error e
    | Ok fn0 ->
        let fns = Array.make n fn0 in
        let rec fill i =
          if i = n then Ok fns
          else
            match decode i with
            | Error e -> Error e
            | Ok fn ->
                fns.(i) <- fn;
                fill (i + 1)
        in
        fill 1

let parse ?known buf =
  match Header.decode buf with
  | Error e -> Error e
  | Ok header -> (
      match parse_fns ?known buf header with
      | Error e -> Error e
      | Ok fns ->
          Ok { header; fns; loc_base = Header.locations_offset header; buf })

let header_size buf =
  match Header.decode buf with
  | Error e -> Error e
  | Ok h -> Ok (Header.header_length h)

let locations_field view (fn : Fn.t) =
  Field.v
    ~off_bits:((8 * view.loc_base) + fn.Fn.field.Field.off_bits)
    ~len_bits:fn.Fn.field.Field.len_bits

let get_target view fn = Bitbuf.get_field view.buf (locations_field view fn)

let payload view =
  let off = Header.payload_offset view.header in
  Bitbuf.sub_string view.buf ~pos:off ~len:(Bitbuf.length view.buf - off)

module V4 = struct
  type t = int32

  let of_octets a b c d =
    let ok x = x >= 0 && x <= 255 in
    if not (ok a && ok b && ok c && ok d) then
      invalid_arg "Ipaddr.V4.of_octets: octet out of range";
    Int32.logor
      (Int32.shift_left (Int32.of_int a) 24)
      (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d))

  let of_string s =
    match String.split_on_char '.' s with
    | [ a; b; c; d ] -> (
        let parse x =
          match int_of_string_opt x with
          | Some v when v >= 0 && v <= 255 && x <> "" -> v
          | _ -> invalid_arg ("Ipaddr.V4.of_string: bad octet in " ^ s)
        in
        try of_octets (parse a) (parse b) (parse c) (parse d)
        with Invalid_argument _ ->
          invalid_arg ("Ipaddr.V4.of_string: bad octet in " ^ s))
    | _ -> invalid_arg ("Ipaddr.V4.of_string: malformed " ^ s)

  let octet a i = Int32.to_int (Int32.shift_right_logical a (8 * (3 - i))) land 0xFF

  let to_string a =
    Printf.sprintf "%d.%d.%d.%d" (octet a 0) (octet a 1) (octet a 2) (octet a 3)

  let to_wire a =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 a;
    Bytes.unsafe_to_string b

  let of_wire s =
    if String.length s <> 4 then invalid_arg "Ipaddr.V4.of_wire: need 4 bytes";
    String.get_int32_be s 0

  let bit a i =
    if i < 0 || i > 31 then invalid_arg "Ipaddr.V4.bit: index out of range";
    Int32.logand (Int32.shift_right_logical a (31 - i)) 1l = 1l

end

module V6 = struct
  type t = int64 * int64

  let to_wire (hi, lo) =
    let b = Bytes.create 16 in
    Bytes.set_int64_be b 0 hi;
    Bytes.set_int64_be b 8 lo;
    Bytes.unsafe_to_string b

  let of_wire s =
    if String.length s <> 16 then invalid_arg "Ipaddr.V6.of_wire: need 16 bytes";
    (String.get_int64_be s 0, String.get_int64_be s 8)

  let group (hi, lo) i =
    let w = if i < 4 then hi else lo in
    Int64.to_int (Int64.shift_right_logical w (16 * (3 - (i mod 4)))) land 0xFFFF

  let to_string a =
    String.concat ":" (List.init 8 (fun i -> Printf.sprintf "%x" (group a i)))

  let of_groups gs =
    let set (hi, lo) i v =
      let v64 = Int64.of_int v in
      if i < 4 then (Int64.logor hi (Int64.shift_left v64 (16 * (3 - i))), lo)
      else (hi, Int64.logor lo (Int64.shift_left v64 (16 * (3 - (i mod 4)))))
    in
    List.fold_left
      (fun (acc, i) g -> (set acc i g, i + 1))
      ((0L, 0L), 0)
      gs
    |> fst

  let parse_group s g =
    if g = "" || String.length g > 4 then
      invalid_arg ("Ipaddr.V6.of_string: bad group in " ^ s);
    match int_of_string_opt ("0x" ^ g) with
    | Some v when v >= 0 && v <= 0xFFFF -> v
    | _ -> invalid_arg ("Ipaddr.V6.of_string: bad group in " ^ s)

  let of_string s =
    (* Accept one "::" elision, including leading/trailing. *)
    let split_groups part =
      if part = "" then []
      else List.map (parse_group s) (String.split_on_char ':' part)
    in
    let double =
      let rec find i =
        if i + 1 >= String.length s then None
        else if s.[i] = ':' && s.[i + 1] = ':' then Some i
        else find (i + 1)
      in
      find 0
    in
    match double with
    | None ->
        let gs = split_groups s in
        if List.length gs <> 8 then
          invalid_arg ("Ipaddr.V6.of_string: need 8 groups in " ^ s);
        of_groups gs
    | Some i ->
        let left = String.sub s 0 i in
        let right = String.sub s (i + 2) (String.length s - i - 2) in
        if String.length right >= 2 && String.sub right 0 1 = ":" then
          invalid_arg ("Ipaddr.V6.of_string: multiple elisions in " ^ s);
        let l = split_groups left and r = split_groups right in
        let missing = 8 - List.length l - List.length r in
        if missing < 1 then
          invalid_arg ("Ipaddr.V6.of_string: too many groups in " ^ s);
        of_groups (l @ List.init missing (fun _ -> 0) @ r)

  let bit (hi, lo) i =
    if i < 0 || i > 127 then invalid_arg "Ipaddr.V6.bit: index out of range";
    let w = if i < 64 then hi else lo in
    Int64.logand (Int64.shift_right_logical w (63 - (i mod 64))) 1L = 1L

  let compare (ah, al) (bh, bl) =
    match Int64.unsigned_compare ah bh with
    | 0 -> Int64.unsigned_compare al bl
    | c -> c
end

module Prefix = struct
  type addr = V4 of V4.t | V6 of V6.t
  type t = { addr : addr; len : int }

  let mask_v4 a len =
    if len = 0 then 0l
    else Int32.logand a (Int32.shift_left (-1l) (32 - len))

  let mask_v6 (hi, lo) len =
    if len = 0 then (0L, 0L)
    else if len <= 64 then (Int64.logand hi (Int64.shift_left (-1L) (64 - len)), 0L)
    else if len >= 128 then (hi, lo)
    else (hi, Int64.logand lo (Int64.shift_left (-1L) (128 - len)))

  let v4 a len =
    if len < 0 || len > 32 then invalid_arg "Prefix.v4: length out of range";
    { addr = V4 (mask_v4 a len); len }

  let v6 a len =
    if len < 0 || len > 128 then invalid_arg "Prefix.v6: length out of range";
    { addr = V6 (mask_v6 a len); len }

  let of_string s =
    match String.index_opt s '/' with
    | None -> invalid_arg ("Prefix.of_string: missing / in " ^ s)
    | Some i -> (
        let a = String.sub s 0 i in
        let l = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt l with
        | None -> invalid_arg ("Prefix.of_string: bad length in " ^ s)
        | Some len ->
            if String.contains a ':' then v6 (V6.of_string a) len
            else v4 (V4.of_string a) len)

  let to_string t =
    match t.addr with
    | V4 a -> Printf.sprintf "%s/%d" (V4.to_string a) t.len
    | V6 a -> Printf.sprintf "%s/%d" (V6.to_string a) t.len

  let matches t addr =
    match (t.addr, addr) with
    | V4 p, V4 a -> mask_v4 a t.len = p
    | V6 p, V6 a -> mask_v6 a t.len = p
    | V4 _, V6 _ | V6 _, V4 _ -> false
end

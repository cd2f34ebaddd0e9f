type t = string list (* non-empty, no '/', no empty components *)

let validate_component c =
  if c = "" then invalid_arg "Name: empty component";
  if String.contains c '/' then invalid_arg "Name: component contains /"

let of_components cs =
  if cs = [] then invalid_arg "Name.of_components: empty name";
  List.iter validate_component cs;
  cs

let of_string s =
  let s =
    if String.length s > 0 && s.[0] = '/' then
      String.sub s 1 (String.length s - 1)
    else s
  in
  match String.split_on_char '/' s with
  | [] | [ "" ] -> invalid_arg ("Name.of_string: empty name: " ^ s)
  | cs -> of_components cs

let to_string t = "/" ^ String.concat "/" t
let components t = t
let length = List.length

let prefix t k =
  if k < 1 || k > length t then invalid_arg "Name.prefix: bad length";
  List.filteri (fun i _ -> i < k) t

let equal a b = List.equal String.equal a b
let hash32 t = Dip_crypto.Siphash.hash32 Dip_crypto.Siphash.default_key (to_string t)

let to_wire t =
  let b = Buffer.create 64 in
  Buffer.add_uint8 b (length t);
  List.iter
    (fun c ->
      if String.length c > 0xFFFF then invalid_arg "Name.to_wire: component too long";
      Buffer.add_uint16_be b (String.length c);
      Buffer.add_string b c)
    t;
  Buffer.contents b

let of_wire s =
  let fail () = invalid_arg "Name.of_wire: malformed encoding" in
  if String.length s < 1 then fail ();
  let n = Char.code s.[0] in
  let pos = ref 1 in
  let comps =
    List.init n (fun _ ->
        if !pos + 2 > String.length s then fail ();
        let len = String.get_uint16_be s !pos in
        pos := !pos + 2;
        if !pos + len > String.length s then fail ();
        let c = String.sub s !pos len in
        pos := !pos + len;
        c)
  in
  if !pos <> String.length s then fail ();
  of_components comps

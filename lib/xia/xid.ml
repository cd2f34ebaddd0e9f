type kind = AD | HID | SID | CID
type t = { kind : kind; id : string }

let v kind id =
  if String.length id <> 20 then invalid_arg "Xid.v: identifier must be 20 bytes";
  { kind; id }

let kind_label = function AD -> "AD" | HID -> "HID" | SID -> "SID" | CID -> "CID"

let of_name kind name =
  (* 160-bit identifier from two SipHash evaluations with distinct
     domain labels — enough to be collision-free for simulation-scale
     namespaces while keeping identifiers deterministic. *)
  let part label =
    let h =
      Dip_crypto.Siphash.hash Dip_crypto.Siphash.default_key
        (kind_label kind ^ ":" ^ label ^ ":" ^ name)
    in
    let b = Bytes.create 8 in
    Bytes.set_int64_be b 0 h;
    Bytes.to_string b
  in
  let id = part "a" ^ part "b" ^ String.sub (part "c") 0 4 in
  v kind id

let kind_to_int = function AD -> 0 | HID -> 1 | SID -> 2 | CID -> 3

let kind_of_int = function
  | 0 -> Some AD
  | 1 -> Some HID
  | 2 -> Some SID
  | 3 -> Some CID
  | _ -> None

let equal a b = a.kind = b.kind && String.equal a.id b.id

let to_wire t = String.make 1 (Char.chr (kind_to_int t.kind)) ^ t.id

let of_wire s =
  if String.length s <> 21 then invalid_arg "Xid.of_wire: need 21 bytes";
  match kind_of_int (Char.code s.[0]) with
  | None -> invalid_arg "Xid.of_wire: unknown kind"
  | Some kind -> { kind; id = String.sub s 1 20 }

let pp fmt t =
  Format.fprintf fmt "%s:%s" (kind_label t.kind)
    (Dip_stdext.Hex.encode (String.sub t.id 0 4))

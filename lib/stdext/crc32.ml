(* Built eagerly at module initialisation: a [lazy] table raises
   [CamlinternalLazy.Undefined] when two domains force it at once.
   The register is an [int] holding 32 bits, so no byte step boxes an
   [int32]. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
        else c := !c lsr 1
      done;
      !c)

let mask = 0xFFFFFFFF

(* The register over [len] bytes of [b] at [pos], from [crc]: one
   loop for the three entry points, no closure per byte. *)
let run crc b ~pos ~len =
  let crc = ref crc in
  for i = pos to pos + len - 1 do
    crc :=
      Array.unsafe_get table ((!crc lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
      lxor (!crc lsr 8)
  done;
  !crc

let start init = (Int32.to_int init land mask) lxor mask
let finish crc = Int32.of_int (crc lxor mask)

let check_sub b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.digest_sub: slice out of bounds"

let digest ?(init = 0l) s =
  finish (run (start init) (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s))

let digest_bytes ?(init = 0l) b =
  finish (run (start init) b ~pos:0 ~len:(Bytes.length b))

let digest_sub ?(init = 0l) b ~pos ~len =
  check_sub b ~pos ~len;
  finish (run (start init) b ~pos ~len)

let digest_sub_int ~init b ~pos ~len =
  check_sub b ~pos ~len;
  run ((init land mask) lxor mask) b ~pos ~len lxor mask

(* Built eagerly at module initialisation: a [lazy] table raises
   [CamlinternalLazy.Undefined] when two domains force it at once. *)
let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        if Int32.logand !c 1l <> 0l then
          c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
        else c := Int32.shift_right_logical !c 1
      done;
      !c)

let update crc byte =
  Int32.logxor
    table.(Int32.to_int (Int32.logand (Int32.logxor crc (Int32.of_int byte)) 0xFFl))
    (Int32.shift_right_logical crc 8)

let run init get len =
  let crc = ref (Int32.lognot init) in
  for i = 0 to len - 1 do
    crc := update !crc (get i)
  done;
  Int32.lognot !crc

let digest ?(init = 0l) s = run init (fun i -> Char.code s.[i]) (String.length s)

let digest_bytes ?(init = 0l) b =
  run init (fun i -> Char.code (Bytes.get b i)) (Bytes.length b)

let digest_sub ?(init = 0l) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.digest_sub: slice out of bounds";
  run init (fun i -> Char.code (Bytes.get b (pos + i))) len

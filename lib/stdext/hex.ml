let hexchar n = "0123456789abcdef".[n land 0xf]

let encode s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set b (2 * i) (hexchar (c lsr 4));
    Bytes.set b ((2 * i) + 1) (hexchar c)
  done;
  Bytes.unsafe_to_string b


let nibble c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Hex.decode: non-hex character"

let decode h =
  let n = String.length h in
  if n land 1 = 1 then invalid_arg "Hex.decode: odd length";
  String.init (n / 2) (fun i ->
      Char.chr ((nibble h.[2 * i] lsl 4) lor nibble h.[(2 * i) + 1]))

let printable c = if c >= ' ' && c <= '~' then c else '.'

let dump fmt s =
  let n = String.length s in
  let line off =
    let len = min 16 (n - off) in
    Format.fprintf fmt "%08x  " off;
    for i = 0 to 15 do
      if i < len then Format.fprintf fmt "%02x " (Char.code s.[off + i])
      else Format.fprintf fmt "   ";
      if i = 7 then Format.fprintf fmt " "
    done;
    Format.fprintf fmt " |";
    for i = 0 to len - 1 do
      Format.fprintf fmt "%c" (printable s.[off + i])
    done;
    Format.fprintf fmt "|@."
  in
  let rec go off = if off < n then (line off; go (off + 16)) in
  go 0

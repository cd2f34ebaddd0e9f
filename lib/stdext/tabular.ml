type align = Left | Right | Center

type t = {
  headers : string list;
  aligns : align list;
  mutable rows : string list list; (* reversed *)
  arity : int;
}

let create ?aligns headers =
  let arity = List.length headers in
  let aligns =
    match aligns with
    | Some a ->
        if List.length a <> arity then
          invalid_arg "Tabular.create: aligns arity mismatch";
        a
    | None -> List.init arity (fun _ -> Left)
  in
  { headers; aligns; rows = []; arity }

let add_row t cells =
  if List.length cells <> t.arity then
    invalid_arg "Tabular.add_row: arity mismatch";
  t.rows <- cells :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = width - n in
    match align with
    | Left -> s ^ String.make fill ' '
    | Right -> String.make fill ' ' ^ s
    | Center ->
        let l = fill / 2 in
        String.make l ' ' ^ s ^ String.make (fill - l) ' '

let render t =
  let rows = List.rev t.rows in
  let widths = Array.of_list (List.map String.length t.headers) in
  List.iter
    (List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)))
    rows;
  let buf = Buffer.create 256 in
  let hline () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let line cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        let align = List.nth t.aligns i in
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad align widths.(i) c);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  hline ();
  line t.headers;
  hline ();
  List.iter line rows;
  hline ();
  Buffer.contents buf

let print t =
  print_string (render t);
  flush stdout

(* The 64-bit state lives in 8 bytes, read and written with the
   native-int64 accessors: a draw stores no boxed [int64]. *)
type t = {
  state : Bytes.t;
  (* Lazily built Zipf CDF cache, keyed by (n, s). A generator is
     typically used with a single popularity law, so one slot is
     enough. *)
  mutable zipf_cache : (int * float * float array) option;
}

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let state = Bytes.create 8 in
  Bytes.set_int64_le state 0 s;
  state

let create seed = { state = of_state seed; zipf_cache = None }

let next64 t =
  let s = Int64.add (Bytes.get_int64_le t.state 0) golden_gamma in
  Bytes.set_int64_le t.state 0 s;
  mix64 s

let split t =
  let seed = next64 t in
  { state = of_state (mix64 seed); zipf_cache = None }

let copy t = { state = Bytes.copy t.state; zipf_cache = t.zipf_cache }

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling on the top 62 bits keeps the draw unbiased
     even when [bound] does not divide the range. *)
  let rec draw () =
    let r = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
    let v = r mod bound in
    if r - v + (bound - 1) < 0 then draw () else v
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next64 t) 1L = 1L

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  r /. 9007199254740992.0 *. bound

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (int t 256))
  done;
  b

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let exponential t rate =
  if rate <= 0. then invalid_arg "Prng.exponential: rate must be positive";
  let u = 1.0 -. float t 1.0 in
  -.log u /. rate

let zipf_cdf n s =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let acc = ref 0.0 in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. x;
        !acc)
      w
  in
  let total = !acc in
  (total, cdf)

let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Prng.zipf: n must be positive";
  let total, cdf =
    match t.zipf_cache with
    | Some (n', s', cdf) when n' = n && s' = s -> (cdf.(n - 1), cdf)
    | _ ->
        let total, cdf = zipf_cdf n s in
        t.zipf_cache <- Some (n, s, cdf);
        (total, cdf)
  in
  let u = float t total in
  (* Binary search for the first index whose cumulative weight
     exceeds the draw. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then search (mid + 1) hi else search lo mid
  in
  search 0 (n - 1) + 1

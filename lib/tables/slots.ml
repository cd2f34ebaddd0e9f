(* Slot [s]'s links are pairs of ints: in [links], from [2 * s], its
   key and the next slot in its bucket (or in the free list); in
   [order], from [2 * s], its newer and older neighbours in recency
   order, apart so that a touch writes as few cache lines as
   possible. An unordered table keeps [order] empty. -1 ends every
   list. *)
type t = {
  mutable links : int array;
  mutable order : int array;
  mutable buckets : int array; (* power of two, twice the slots *)
  mutable mru : int;
  mutable lru : int;
  mutable free : int;
  mutable count : int;
}

(* The links of [n] free slots from slot [base] on, each chained to
   the next and the last to none. *)
let fresh base n =
  Array.init (2 * n) (fun i ->
      if i land 1 = 0 then 0 else if i / 2 = n - 1 then -1 else base + (i / 2) + 1)

let create ~ordered =
  { links = fresh 0 4; order = (if ordered then Array.make 8 (-1) else [||]);
    buckets = Array.make 8 (-1); mru = -1; lru = -1; free = 0; count = 0 }

let count t = t.count
let slots t = Array.length t.links / 2
let ordered t = Array.length t.order > 0
let key t s = t.links.(2 * s)
let chain t s = t.links.((2 * s) + 1)
let older t s = t.order.((2 * s) + 1)
let lru t = t.lru
let bucket t k = k land (Array.length t.buckets - 1)

(* The first slot from [s] on along its chain that holds [k], or -1. *)
let from t s k =
  let s = ref s in
  while !s >= 0 && key t !s <> k do
    s := chain t !s
  done;
  !s

let find t k = from t t.buckets.(bucket t k) k
let next t s = from t (chain t s) (key t s)

let rechain t s =
  let b = bucket t (key t s) in
  t.links.((2 * s) + 1) <- t.buckets.(b);
  t.buckets.(b) <- s

(* Double the slots and rebucket the live ones. A bucket's keys stay
   together and in order: each chain is relinked from its tail. *)
let grow t =
  let n = slots t and old = t.buckets in
  t.links <- Array.append t.links (fresh n n);
  if ordered t then t.order <- Array.append t.order (Array.make (2 * n) (-1));
  t.free <- n;
  t.buckets <- Array.make (4 * n) (-1);
  let rec relink s =
    if s >= 0 then begin
      relink (chain t s);
      rechain t s
    end
  in
  Array.iter relink old

let unlink t s =
  let n = t.order.(2 * s) and o = older t s in
  if n >= 0 then t.order.((2 * n) + 1) <- o else t.mru <- o;
  if o >= 0 then t.order.(2 * o) <- n else t.lru <- n

let push t s =
  t.order.(2 * s) <- -1;
  t.order.((2 * s) + 1) <- t.mru;
  if t.mru >= 0 then t.order.(2 * t.mru) <- s else t.lru <- s;
  t.mru <- s

let touch t s =
  if t.mru <> s && ordered t then begin
    unlink t s;
    push t s
  end

let add t k =
  if t.free < 0 then grow t;
  let s = t.free in
  t.free <- chain t s;
  t.links.(2 * s) <- k;
  rechain t s;
  if ordered t then push t s;
  t.count <- t.count + 1;
  s

let remove t s =
  let b = bucket t (key t s) in
  if t.buckets.(b) = s then t.buckets.(b) <- chain t s
  else begin
    let p = ref t.buckets.(b) in
    while chain t !p <> s do
      p := chain t !p
    done;
    t.links.((2 * !p) + 1) <- chain t s
  end;
  if ordered t then unlink t s;
  t.links.((2 * s) + 1) <- t.free;
  t.free <- s;
  t.count <- t.count - 1

let iter f t =
  let rec go s = if s >= 0 then (let o = older t s in f s; go o) in
  let rec chained s = if s >= 0 then (let c = chain t s in f s; chained c) in
  if ordered t then go t.mru else Array.iter chained t.buckets

let fit a t v =
  let n = Array.length a in
  if n >= slots t then a else Array.append a (Array.make (slots t - n) v)

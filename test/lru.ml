(* A generic bounded LRU map over a polymorphic Hashtbl and a linked
   list of nodes, with caller-provided hash and equality: the store
   the content store and the custody store were built on before both
   moved onto Dip_tables.Slots. It stays as a model: test_core checks
   the program cache's slot table against it, and test_tables pins
   its eviction order. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
  index : (int, ('k, 'v) node list ref) Hashtbl.t;
      (* bucketed by caller-provided hash to honour custom equality *)
  cap : int;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  mutable count : int;
}

let create ?(hash = Hashtbl.hash) ?(equal = ( = )) ~capacity () =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  {
    hash;
    equal;
    index = Hashtbl.create (2 * capacity);
    cap = capacity;
    head = None;
    tail = None;
    count = 0;
  }

let capacity t = t.cap
let size t = t.count

let bucket t k =
  match Hashtbl.find_opt t.index (t.hash k) with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace t.index (t.hash k) l;
      l

let find_node t k =
  match Hashtbl.find_opt t.index (t.hash k) with
  | None -> None
  | Some l -> List.find_opt (fun n -> t.equal n.key k) !l

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let drop_from_index t n =
  let h = t.hash n.key in
  match Hashtbl.find_opt t.index h with
  | None -> ()
  | Some l ->
      l := List.filter (fun x -> not (t.equal x.key n.key)) !l;
      if !l = [] then Hashtbl.remove t.index h

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some n ->
      unlink t n;
      drop_from_index t n;
      t.count <- t.count - 1

let insert t k v =
  match find_node t k with
  | Some n ->
      n.value <- v;
      unlink t n;
      push_front t n
  | None ->
      if t.count >= t.cap then evict_lru t;
      let n = { key = k; value = v; prev = None; next = None } in
      let l = bucket t k in
      l := n :: !l;
      push_front t n;
      t.count <- t.count + 1

let find t k =
  match find_node t k with
  | Some n ->
      unlink t n;
      push_front t n;
      Some n.value
  | None -> None

let mem t k = find_node t k <> None

let remove t k =
  match find_node t k with
  | Some n ->
      unlink t n;
      drop_from_index t n;
      t.count <- t.count - 1;
      true
  | None -> false

let clear t =
  Hashtbl.reset t.index;
  t.head <- None;
  t.tail <- None;
  t.count <- 0

let peek_lru t =
  match t.tail with None -> None | Some n -> Some (n.key, n.value)

let fold f t init =
  let rec go acc = function
    | None -> acc
    | Some n -> go (f n.key n.value acc) n.next
  in
  go init t.head

type kind = Instant | Span | Counter

type id = int

(* The process-wide event-type registry. Ids are dense ints so a
   recorded event is four plain int stores; the registry itself is
   only touched at registration (module init) and export time. *)

let reg_lock = Mutex.create ()
let reg_names : string array ref = ref (Array.make 16 "")
let reg_kinds : kind array ref = ref (Array.make 16 Instant)
let reg_count = ref 0
let reg_by_name : (string, int) Hashtbl.t = Hashtbl.create 64

let register ?(kind = Instant) name =
  Mutex.lock reg_lock;
  let id =
    match Hashtbl.find_opt reg_by_name name with
    | Some id -> id
    | None ->
        let id = !reg_count in
        let cap = Array.length !reg_names in
        if id = cap then begin
          let names = Array.make (2 * cap) "" in
          let kinds = Array.make (2 * cap) Instant in
          Array.blit !reg_names 0 names 0 cap;
          Array.blit !reg_kinds 0 kinds 0 cap;
          reg_names := names;
          reg_kinds := kinds
        end;
        !reg_names.(id) <- name;
        !reg_kinds.(id) <- kind;
        incr reg_count;
        Hashtbl.add reg_by_name name id;
        id
  in
  Mutex.unlock reg_lock;
  id

let id_name id = !reg_names.(id)
let id_kind id = !reg_kinds.(id)

let registered () =
  Mutex.lock reg_lock;
  let l =
    List.init !reg_count (fun i -> (!reg_names.(i), !reg_kinds.(i)))
  in
  Mutex.unlock reg_lock;
  l

(* The ring: parallel int arrays (no boxing — OCaml int arrays hold
   unboxed 63-bit words) indexed by a monotone write cursor masked to
   the power-of-two capacity. Single writer, quiescent readers. *)

type ring = {
  ids : int array;
  ts : int array;
  a0 : int array;
  a1 : int array;
  a2 : int array;
  mask : int;
  r_pid : int;
  r_tid : int;
  mutable w : int;
}

let default_capacity = 16384

let create ?(capacity = default_capacity) ~pid ~tid () =
  let cap =
    let rec up n = if n >= capacity then n else up (2 * n) in
    up 8
  in
  {
    ids = Array.make cap 0;
    ts = Array.make cap 0;
    a0 = Array.make cap 0;
    a1 = Array.make cap 0;
    a2 = Array.make cap 0;
    mask = cap - 1;
    r_pid = pid;
    r_tid = tid;
    w = 0;
  }

let now () = Int64.to_int (Clock.now_ns ())

let record_at t ~ts id a0 a1 a2 =
  let i = t.w land t.mask in
  t.ts.(i) <- ts;
  t.ids.(i) <- id;
  t.a0.(i) <- a0;
  t.a1.(i) <- a1;
  t.a2.(i) <- a2;
  t.w <- t.w + 1

let record t id a0 a1 a2 = record_at t ~ts:(now ()) id a0 a1 a2

let capacity t = t.mask + 1
let recorded t = t.w
let dropped t = Stdlib.max 0 (t.w - (t.mask + 1))

let clear t = t.w <- 0

type event = {
  ev_ts : int;
  ev_id : id;
  ev_pid : int;
  ev_tid : int;
  ev_a0 : int;
  ev_a1 : int;
  ev_a2 : int;
}

let events t =
  let cap = t.mask + 1 in
  let first = if t.w > cap then t.w - cap else 0 in
  List.init (t.w - first) (fun j ->
      let i = (first + j) land t.mask in
      {
        ev_ts = t.ts.(i);
        ev_id = t.ids.(i);
        ev_pid = t.r_pid;
        ev_tid = t.r_tid;
        ev_a0 = t.a0.(i);
        ev_a1 = t.a1.(i);
        ev_a2 = t.a2.(i);
      })

let merge rings =
  List.concat_map events rings
  |> List.stable_sort (fun a b -> Stdlib.compare a.ev_ts b.ev_ts)

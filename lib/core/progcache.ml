module Bitbuf = Dip_bitbuf.Bitbuf
module F = Dip_obs.Flight

(* Flight-recorder event types. Hits dominate a steady-state router
   (hit rate ~0.998 on the soak workload), so they are sampled
   1-in-16 to stay inside the recorder's overhead budget; misses and
   evictions are rare and recorded unconditionally. Operand a0
   carries the running total so a sampled stream still reconstructs
   exact counts. *)
type stat = Hit | Miss | Evict

let stat_name = function
  | Hit -> "progcache.hit"
  | Miss -> "progcache.miss"
  | Evict -> "progcache.evict"

let ev_hit = F.register (stat_name Hit)
let ev_miss = F.register (stat_name Miss)
let ev_evict = F.register (stat_name Evict)
let fl_sample_every = 16

type program = ..
type program += Uncompiled

type entry = {
  view : Packet.view; (* hop_limit forced to 0, [buf] empty when idle *)
  mutable program : program;
}

let idle = Bitbuf.create 0

(* The "no entry" sentinel. *)
let absent =
  {
    view =
      {
        Packet.header =
          { Header.next_header = 0; fn_num = 0; hop_limit = 0; parallel = false;
            fn_loc_len = 0 };
        fns = [||];
        loc_base = 0;
        buf = idle;
      };
    program = Uncompiled;
  }

(* Tables keyed by packed small ints (see [fn_id] and [field_id]). *)
module Shared = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k * 0x2545F4914F6CDD1D) lsr 24
end)

(* A one-entry parse memo: the last program parsed through it and its
   key (the empty key matches no packet). *)
type hint = { mutable last : entry; mutable last_key : string }

let hint () = { last = absent; last_key = "" }

(* The slot table. Slot [s] holds [entries.(s)], keyed by [keys.(s)]
   (the program prefix, hop-limit byte zeroed). Its links are pairs of
   ints: in [links], from [2 * s], the key's fingerprint and the next
   slot in its bucket (or in the free list); in [order], from [2 * s],
   its newer and older neighbours in recency order, apart so that the
   LRU update of a hit touches as few cache lines as possible. -1 ends
   every list. The arrays start at [initial_slots] and double up to
   [cap], so a node that sees a handful of programs keeps a handful
   of slots. *)
type t = {
  cap : int;
  enabled : bool;
  mutable entries : entry array;
  mutable keys : string array;
  mutable links : int array;
  mutable order : int array;
  mutable buckets : int array; (* power of two, twice the slots *)
  mutable mru : int;
  mutable lru : int;
  mutable free : int; (* slots freed by invalidation, through [chain] *)
  mutable used : int; (* slots [used..] have never held an entry *)
  mutable count : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  (* The inline hint {!probe} uses. A forwarding router's steady
     state is a run of same-program packets, so most probes resolve
     here: one prefix comparison, no hashing, no recency update.
     Because the probe re-arms the hint on every table access it
     makes, an inline hit is the table's MRU entry unless an external
     hint touched the table since: skipping the touch cannot change
     the eviction order. *)
  inline : hint;
  (* FN definitions and target slices shared by the entries:
     programs that differ only in their basic header carry identical
     triples, and most of a cached program's memory is its FNs and
     their slices. FNs are keyed by their wire bits, and a miss's
     {!Packet.parse} takes the FNs the table knows instead of
     decoding them. Each table is emptied when it outgrows
     [4 * cap]. *)
  shared_fns : Fn.t Shared.t;
  shared_fields : Dip_bitbuf.Field.t Shared.t;
  mutable known : int; (* FNs the current miss's parse took from [shared_fns] *)
  mutable flight : F.ring option;
  mutable fl_tick : int;
}

let initial_slots = 8

let create ?(capacity = 512) () =
  let cap = max 1 capacity in
  let n = min cap initial_slots in
  {
    cap;
    enabled = capacity > 0;
    entries = Array.make n absent;
    keys = Array.make n "";
    links = Array.make (2 * n) (-1);
    order = Array.make (2 * n) (-1);
    buckets = Array.make (2 * n) (-1);
    mru = -1;
    lru = -1;
    free = -1;
    used = 0;
    count = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    inline = hint ();
    shared_fns = Shared.create 8;
    shared_fields = Shared.create 8;
    known = 0;
    flight = None;
    fl_tick = 0;
  }

let enabled t = t.enabled
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let size t = t.count
let capacity t = t.cap
let set_flight t r = t.flight <- r

let note_hit t =
  t.hits <- t.hits + 1;
  match t.flight with
  | None -> ()
  | Some r ->
      let tk = t.fl_tick + 1 in
      if tk >= fl_sample_every then begin
        t.fl_tick <- 0;
        F.record r ev_hit t.hits 0 0
      end
      else t.fl_tick <- tk

let note_miss t =
  t.misses <- t.misses + 1;
  match t.flight with
  | None -> ()
  | Some r -> F.record r ev_miss t.misses 0 0

let note_evict t =
  t.evictions <- t.evictions + 1;
  match t.flight with
  | None -> ()
  | Some r -> F.record r ev_evict t.evictions 0 0

let arm h e key =
  h.last <- e;
  h.last_key <- key

let drop_hint t = arm t.inline absent ""

(* --- the key, read off the packet ----------------------------------- *)

(* The cache key is the raw basic-header + FN-definition prefix with
   the hop-limit byte (2) read as 0: it decrements per hop but does
   not change the program. Packets of one realization carry
   byte-identical prefixes, so the key is exact. It is never
   materialized on a hit: the fingerprint and the comparison below
   read the packet's own bytes. *)

(* The prefix length [d] announces, or -1 when it cannot hold it. *)
let prefix_len d =
  let len = Bytes.length d in
  if len < Header.basic_size then -1
  else
    let n = Header.basic_size + (Char.code (Bytes.unsafe_get d 1) * Fn.size) in
    if n > len then -1 else n

(* Prefixes are compared and hashed 8 bytes at a time, in native
   byte order, with the hop-limit byte masked out of the first word.
   Every prefix is 6 bytes plus 6 per FN, so one longer than a word is
   at least 12 bytes long and its last word lies past byte 2. *)
external word : bytes -> int -> int64 = "%caml_bytes_get64u"

let hop_mask = Int64.lognot (Int64.shift_left 0xffL (if Sys.big_endian then 40 else 16))

(* Does [d]'s prefix equal [key]? Byte 1 of a prefix is FN_Num, so two
   prefixes that agree on it have the same length. *)
let same_prefix d key =
  let n = String.length key in
  let k = Bytes.unsafe_of_string key in
  n > 0
  && Bytes.length d >= n
  &&
  if n < 8 then begin
    let i = ref 0 in
    while !i < n && (!i = 2 || Bytes.unsafe_get d !i = Bytes.unsafe_get k !i) do
      incr i
    done;
    !i = n
  end
  else
    (Int64.logand (word d 0) hop_mask : int64) = word k 0
    && (word d (n - 8) : int64) = word k (n - 8)
    &&
    let i = ref 8 in
    while !i + 8 <= n && (word d !i : int64) = word k !i do
      i := !i + 8
    done;
    !i + 8 > n

(* Program prefixes differ early -- FN_Num at byte 1, the first
   triple at bytes 6..11 -- so the length, the first three words and
   the last one fingerprint as well as a full hash at a fraction of
   the cost. Collisions only cost a chain step. *)
let mix h w = (h lxor w) * 0x2545F4914F6CDD1D

let fingerprint d n =
  let h =
    if n < 8 then
      mix n
        (Char.code (Bytes.unsafe_get d 0)
        lor (Char.code (Bytes.unsafe_get d 1) lsl 8)
        lor (Char.code (Bytes.unsafe_get d 3) lsl 24)
        lor (Char.code (Bytes.unsafe_get d 4) lsl 32)
        lor (Char.code (Bytes.unsafe_get d 5) lsl 40))
    else
      let h = mix n (Int64.to_int (Int64.logand (word d 0) hop_mask)) in
      let h = if n >= 16 then mix h (Int64.to_int (word d 8)) else h in
      let h = if n >= 24 then mix h (Int64.to_int (word d 16)) else h in
      mix h (Int64.to_int (word d (n - 8)))
  in
  (h lxor (h lsr 29)) land max_int

let key_of buf =
  let d = Bitbuf.to_bytes buf in
  let n = prefix_len d in
  if n < 0 then None
  else begin
    let b = Bytes.sub d 0 n in
    Bytes.set b 2 '\000';
    Some (Bytes.unsafe_to_string b)
  end

(* --- the slot table -------------------------------------------------- *)

let fp t s = t.links.(2 * s)
let chain t s = t.links.((2 * s) + 1)
let newer t s = t.order.(2 * s)
let older t s = t.order.((2 * s) + 1)
let set_fp t s v = t.links.(2 * s) <- v
let set_chain t s v = t.links.((2 * s) + 1) <- v
let set_newer t s v = t.order.(2 * s) <- v
let set_older t s v = t.order.((2 * s) + 1) <- v
let bucket t fp = fp land (Array.length t.buckets - 1)

let lookup t d kh =
  let s = ref t.buckets.(bucket t kh) in
  while !s >= 0 && not (fp t !s = kh && same_prefix d t.keys.(!s)) do
    s := chain t !s
  done;
  !s

let unlink t s =
  let n = newer t s and o = older t s in
  if n >= 0 then set_older t n o else t.mru <- o;
  if o >= 0 then set_newer t o n else t.lru <- n

let push_mru t s =
  set_newer t s (-1);
  set_older t s t.mru;
  if t.mru >= 0 then set_newer t t.mru s else t.lru <- s;
  t.mru <- s

let touch t s =
  if t.mru <> s then begin
    unlink t s;
    push_mru t s
  end

let unchain t s =
  let b = bucket t (fp t s) in
  if t.buckets.(b) = s then t.buckets.(b) <- chain t s
  else begin
    let p = ref t.buckets.(b) in
    while chain t !p <> s do
      p := chain t !p
    done;
    set_chain t !p (chain t s)
  end

let rechain t s =
  let b = bucket t (fp t s) in
  set_chain t s t.buckets.(b);
  t.buckets.(b) <- s

(* Double every array (up to [cap]) and rebucket the live slots. *)
let grow t =
  let n = Array.length t.entries in
  let m = min t.cap (2 * n) in
  let extend a stride fill =
    let b = Array.make (stride * m) fill in
    Array.blit a 0 b 0 (stride * n);
    b
  in
  t.entries <- extend t.entries 1 absent;
  t.keys <- extend t.keys 1 "";
  t.links <- extend t.links 2 (-1);
  t.order <- extend t.order 2 (-1);
  t.buckets <- Array.make (2 * m) (-1);
  let s = ref t.lru in
  while !s >= 0 do
    rechain t !s;
    s := newer t !s
  done

(* A slot for a new entry: the LRU victim when the table is full,
   else a freed slot, else a fresh one. *)
let take_slot t =
  if t.count = t.cap then begin
    note_evict t;
    (* The victim could be the hinted entry: it must not serve an
       entry whose verdict a later re-insert could contradict. *)
    drop_hint t;
    let s = t.lru in
    unlink t s;
    unchain t s;
    t.count <- t.count - 1;
    s
  end
  else if t.free >= 0 then begin
    let s = t.free in
    t.free <- chain t s;
    s
  end
  else begin
    if t.used = Array.length t.entries then grow t;
    let s = t.used in
    t.used <- s + 1;
    s
  end

let shared t table k v =
  match Shared.find_opt table k with
  | Some v -> v
  | None ->
      if Shared.length table >= 4 * t.cap then Shared.reset table;
      Shared.add table k v;
      v

let field_id (f : Dip_bitbuf.Field.t) =
  (f.Dip_bitbuf.Field.off_bits lsl 20) lor f.Dip_bitbuf.Field.len_bits

let share_field t f = shared t t.shared_fields (field_id f) f

(* The wire identity of the FN triple at byte [pos]: its six bytes. *)
let fn_id d pos =
  (Bytes.get_uint16_be d pos lsl 32)
  lor (Bytes.get_uint16_be d (pos + 2) lsl 16)
  lor Bytes.get_uint16_be d (pos + 4)

(* [Packet.parse]'s memo: an FN the shared table holds. *)
let known_fn t buf pos =
  match Shared.find_opt t.shared_fns (fn_id (Bitbuf.to_bytes buf) pos) with
  | Some _ as fn ->
      t.known <- t.known + 1;
      fn
  | None -> None

(* A parsed view, with its FNs entered into (or taken from) the shared
   table; there is nothing to enter when the parse took them all from
   it. *)
let shared_view t d (view : Packet.view) =
  let fns = view.Packet.fns in
  if t.known < Array.length fns then
    for i = 0 to Array.length fns - 1 do
      fns.(i) <- shared t t.shared_fns (fn_id d (Header.fn_offset i)) fns.(i)
    done;
  { view with Packet.header = { view.Packet.header with Header.hop_limit = 0 }; buf = idle }

let insert t h d n kh view =
  let key = Bytes.sub d 0 n in
  Bytes.set key 2 '\000';
  let e = { view; program = Uncompiled } in
  let s = take_slot t in
  t.entries.(s) <- e;
  t.keys.(s) <- Bytes.unsafe_to_string key;
  arm h e t.keys.(s);
  set_fp t s kh;
  rechain t s;
  push_mru t s;
  t.count <- t.count + 1;
  e

let remove t s =
  unlink t s;
  unchain t s;
  t.entries.(s) <- absent;
  t.keys.(s) <- "";
  set_chain t s t.free;
  t.free <- s;
  t.count <- t.count - 1

let clear t =
  drop_hint t;
  Array.fill t.entries 0 (Array.length t.entries) absent;
  Array.fill t.keys 0 (Array.length t.keys) "";
  Array.fill t.buckets 0 (Array.length t.buckets) (-1);
  t.mru <- -1;
  t.lru <- -1;
  t.free <- -1;
  t.used <- 0;
  t.count <- 0

(* --- the probe ------------------------------------------------------- *)

(* The packet must be long enough for the header its prefix announces
   (the locations region lies beyond the keyed bytes); on a hit the
   packet's prefix is the entry's, so its own bytes tell. *)
let fits buf = Header.announced_length buf <= Bitbuf.length buf

let served t h s buf =
  if not (fits buf) then absent
  else begin
    note_hit t;
    let e = t.entries.(s) in
    arm h e t.keys.(s);
    e
  end

let find t h buf =
  let d = Bitbuf.to_bytes buf in
  let e = h.last in
  if same_prefix d h.last_key then
    (* Same program as the previous packet through [h]: no hashing,
       no recency update. *)
    if not (fits buf) then absent
    else begin
      note_hit t;
      e
    end
  else
    let n = prefix_len d in
    if n < 0 then absent
    else
      let kh = fingerprint d n in
      let s = lookup t d kh in
      if s >= 0 then begin
        touch t s;
        served t h s buf
      end
      else begin
        t.known <- 0;
        match Packet.parse ~known:(known_fn t) buf with
        | Error _ -> absent
        | Ok view ->
            note_miss t;
            insert t h d n kh (shared_view t d view)
      end

let probe t buf = find t t.inline buf

let view_of_entry e buf =
  {
    e.view with
    Packet.header = { e.view.Packet.header with Header.hop_limit = Bitbuf.get_uint8 buf 2 };
    buf;
  }

let parse_hinted t h buf =
  let e = find t h buf in
  if e == absent then
    match Packet.parse buf with
    | Ok view -> Ok (view, None)
    | Error e -> Error e
  else Ok (view_of_entry e buf, Some e)

let parse t buf = parse_hinted t t.inline buf

let invalidate_key t key =
  let dropped = ref 0 in
  let s = ref t.mru in
  while !s >= 0 do
    let next = older t !s in
    if Array.exists (fun fn -> Opkey.equal fn.Fn.key key) t.entries.(!s).view.Packet.fns
    then begin
      remove t !s;
      incr dropped
    end;
    s := next
  done;
  if !dropped > 0 then drop_hint t;
  !dropped

module Bitbuf = Dip_bitbuf.Bitbuf
module F = Dip_obs.Flight
module Slots = Dip_tables.Slots

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

(* The slot table. Slot [s] of [index] ({!Dip_tables.Slots}, keyed by
   the prefix's fingerprint and kept in recency order) holds
   [entries.(s)], keyed by [keys.(s)] (the program prefix, hop-limit
   byte zeroed). The table starts at a handful of slots and doubles
   only when full, to at most the power of two at or above [cap], so
   a node that sees a handful of programs keeps a handful of slots.

   Entries whose keys differ only in byte 0, the next header, carry
   one FN program: the same triples, flags and locations length, so
   the same compiled program. Slot [g] of [progs] (unordered, keyed by
   the prefix's fingerprint with bytes 0 and 2 masked) stands for one
   FN program while [prog_refs.(g)] > 0 entries hold it.
   [prog_keys.(g)] is the key of the entry that made it (the same
   string, not a copy) and [prog_entry.(g)] the entry that joined
   last: a new entry of the FN program takes its program and its FN
   array. *)
type t = {
  cap : int;
  enabled : bool;
  mutable index : Slots.t;
  mutable entries : entry array;
  mutable keys : string array;
  mutable progs : Slots.t;
  mutable prog_keys : string array;
  mutable prog_entry : entry array;
  mutable prog_refs : int array;
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
  (* FN definitions shared by the entries: programs that differ in
     their basic header or in some of their triples carry identical
     FNs. FNs are keyed by their wire bits, and a miss's
     {!Packet.parse} takes the FNs the table knows instead of
     decoding them. The table is emptied when it outgrows
     [4 * cap]. *)
  shared_fns : Fn.t Shared.t;
  mutable known : int; (* FNs the current miss's parse took from [shared_fns] *)
  mutable flight : F.ring option;
  mutable fl_tick : int;
}

let create ?(capacity = 512) () =
  let index = Slots.create ~ordered:true and progs = Slots.create ~ordered:false in
  {
    cap = max 1 capacity;
    enabled = capacity > 0;
    index;
    entries = Array.make (Slots.slots index) absent;
    keys = Array.make (Slots.slots index) "";
    progs;
    prog_keys = Array.make (Slots.slots progs) "";
    prog_entry = Array.make (Slots.slots progs) absent;
    prog_refs = Array.make (Slots.slots progs) 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    inline = hint ();
    shared_fns = Shared.create 8;
    known = 0;
    flight = None;
    fl_tick = 0;
  }

let enabled t = t.enabled
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let size t = Slots.count t.index
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

(* The first word's mask for an FN program: next-header byte out too. *)
let program_mask =
  Int64.logand hop_mask
    (Int64.lognot (Int64.shift_left 0xffL (if Sys.big_endian then 56 else 0)))

(* Does [d]'s prefix equal [key], the bytes [mask] clears from the
   first word aside (those below [first] too, in a prefix shorter than
   a word)? Byte 1 of a prefix is FN_Num, so two prefixes that agree
   on it have the same length. *)
let[@inline] equal_under ~mask ~first d key =
  let n = String.length key in
  let k = Bytes.unsafe_of_string key in
  n > 0
  && Bytes.length d >= n
  &&
  if n < 8 then begin
    let i = ref first in
    while !i < n && (!i = 2 || Bytes.unsafe_get d !i = Bytes.unsafe_get k !i) do
      incr i
    done;
    !i = n
  end
  else
    (Int64.logand (word d 0) mask : int64) = Int64.logand (word k 0) mask
    && (word d (n - 8) : int64) = word k (n - 8)
    &&
    let i = ref 8 in
    while !i + 8 <= n && (word d !i : int64) = word k !i do
      i := !i + 8
    done;
    !i + 8 > n

let same_prefix d key = equal_under ~mask:hop_mask ~first:0 d key

(* Does [d]'s FN program equal [key]'s? *)
let same_program d key = equal_under ~mask:program_mask ~first:1 d key

(* Program prefixes differ early -- FN_Num at byte 1, the first
   triple at bytes 6..11 -- so the length, the first three words and
   the last one fingerprint as well as a full hash at a fraction of
   the cost. Collisions only cost a chain step. [mask] is the first
   word's and [low] the short prefix's mask of the bytes it reads. *)
let mix h w = (h lxor w) * 0x2545F4914F6CDD1D

let[@inline] hash_prefix ~mask ~low d n =
  let h =
    if n < 8 then
      mix n
        (low
        land (Char.code (Bytes.unsafe_get d 0)
             lor (Char.code (Bytes.unsafe_get d 1) lsl 8)
             lor (Char.code (Bytes.unsafe_get d 3) lsl 24)
             lor (Char.code (Bytes.unsafe_get d 4) lsl 32)
             lor (Char.code (Bytes.unsafe_get d 5) lsl 40)))
    else
      let h = mix n (Int64.to_int (Int64.logand (word d 0) mask)) in
      let h = if n >= 16 then mix h (Int64.to_int (word d 8)) else h in
      let h = if n >= 24 then mix h (Int64.to_int (word d 16)) else h in
      mix h (Int64.to_int (word d (n - 8)))
  in
  (h lxor (h lsr 29)) land max_int

let fingerprint d n = hash_prefix ~mask:hop_mask ~low:(-1) d n

(* The FN program's: the next-header byte read as 0 too. *)
let program_fingerprint d n = hash_prefix ~mask:program_mask ~low:(lnot 0xff) d n

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

let lookup t d kh =
  let s = ref (Slots.find t.index kh) in
  while !s >= 0 && not (same_prefix d t.keys.(!s)) do
    s := Slots.next t.index !s
  done;
  !s

let lookup_program t d pg =
  let g = ref (Slots.find t.progs pg) in
  while !g >= 0 && not (same_program d t.prog_keys.(!g)) do
    g := Slots.next t.progs !g
  done;
  !g

(* Entry [s]'s hold on its FN program ends; so does the program when
   no other entry holds it. Its key finds it. *)
let release t s =
  let key = t.keys.(s) in
  let k = Bytes.unsafe_of_string key in
  let g = lookup_program t k (program_fingerprint k (String.length key)) in
  let refs = t.prog_refs.(g) - 1 in
  t.prog_refs.(g) <- refs;
  if refs = 0 then begin
    Slots.remove t.progs g;
    t.prog_keys.(g) <- "";
    t.prog_entry.(g) <- absent
  end

(* A slot for a new entry, the LRU victim's when the table is full. *)
let take_slot t kh =
  if Slots.count t.index = t.cap then begin
    note_evict t;
    (* The victim could be the hinted entry: it must not serve an
       entry whose verdict a later re-insert could contradict. *)
    drop_hint t;
    let victim = Slots.lru t.index in
    release t victim;
    Slots.remove t.index victim
  end;
  let s = Slots.add t.index kh in
  t.entries <- Slots.fit t.entries t.index absent;
  t.keys <- Slots.fit t.keys t.index "";
  s

(* A slot for a new FN program, keyed by [key]. *)
let add_program t pg key =
  let g = Slots.add t.progs pg in
  t.prog_keys <- Slots.fit t.prog_keys t.progs "";
  t.prog_entry <- Slots.fit t.prog_entry t.progs absent;
  t.prog_refs <- Slots.fit t.prog_refs t.progs 0;
  t.prog_keys.(g) <- key;
  t.prog_refs.(g) <- 1;
  g

let shared t table k v =
  match Shared.find_opt table k with
  | Some v -> v
  | None ->
      if Shared.length table >= 4 * t.cap then Shared.reset table;
      Shared.add table k v;
      v

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

(* [view] becomes an entry keyed by [d]'s prefix, holding its FN
   program [g] and the program compiled for it, or, for [g] < 0, a new
   FN program with none. *)
let insert t h d n kh pg g view =
  let key = Bytes.sub d 0 n in
  Bytes.set key 2 '\000';
  let key = Bytes.unsafe_to_string key in
  (* Held before the eviction, which may take its last other entry. *)
  if g >= 0 then t.prog_refs.(g) <- t.prog_refs.(g) + 1;
  let s = take_slot t kh in
  let g = if g >= 0 then g else add_program t pg key in
  let e = { view; program = t.prog_entry.(g).program } in
  t.prog_entry.(g) <- e;
  t.entries.(s) <- e;
  t.keys.(s) <- key;
  arm h e key;
  e

let remove t s =
  release t s;
  Slots.remove t.index s;
  t.entries.(s) <- absent;
  t.keys.(s) <- ""

let clear t =
  drop_hint t;
  t.index <- Slots.create ~ordered:true;
  t.progs <- Slots.create ~ordered:false;
  Array.fill t.entries 0 (Array.length t.entries) absent;
  Array.fill t.keys 0 (Array.length t.keys) "";
  Array.fill t.prog_keys 0 (Array.length t.prog_keys) "";
  Array.fill t.prog_entry 0 (Array.length t.prog_entry) absent;
  Array.fill t.prog_refs 0 (Array.length t.prog_refs) 0

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
        Slots.touch t.index s;
        served t h s buf
      end
      else
        let pg = program_fingerprint d n in
        let g = lookup_program t d pg in
        if g >= 0 then
          (* A known FN program under a new next header: the parse
             would give the program's header and triples, and fails
             only on a packet shorter than the header it announces. *)
          if not (fits buf) then absent
          else begin
            note_miss t;
            let v = t.prog_entry.(g).view in
            insert t h d n kh pg g
              {
                v with
                Packet.header =
                  { v.Packet.header with Header.next_header = Char.code (Bytes.get d 0) };
                buf = idle;
              }
          end
        else begin
          t.known <- 0;
          match Packet.parse ~known:(known_fn t) buf with
          | Error _ -> absent
          | Ok view ->
              note_miss t;
              insert t h d n kh pg (-1) (shared_view t d view)
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
  Slots.iter
    (fun s ->
      if Array.exists (fun fn -> Opkey.equal fn.Fn.key key) t.entries.(s).view.Packet.fns
      then begin
        remove t s;
        incr dropped
      end)
    t.index;
  if !dropped > 0 then drop_hint t;
  !dropped

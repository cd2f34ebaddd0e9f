module Bitbuf = Dip_bitbuf.Bitbuf
module Lru = Dip_tables.Lru
module F = Dip_obs.Flight

(* Flight-recorder event types. Hits dominate a steady-state router
   (hit rate ~0.998 on the soak workload), so they are sampled
   1-in-16 to stay inside the recorder's overhead budget; misses and
   evictions are rare and recorded unconditionally. Operand a0
   carries the running total so a sampled stream still reconstructs
   exact counts. *)
let ev_hit = F.register "progcache.hit"
let ev_miss = F.register "progcache.miss"
let ev_evict = F.register "progcache.evict"
let fl_sample_every = 16

type entry = {
  header : Header.t; (* hop_limit forced to 0; patched per packet *)
  header_len : int;
  fns : Fn.t array;
  loc_base : int;
  mutable depth : int; (* full-program critical path; -1 = not computed *)
  mutable verdict :
    ((Packet.view -> (unit, string) result) * (unit, string) result) option;
}

(* A one-entry parse memo: the last program prefix parsed through it
   and its cache entry. *)
type hint = { mutable hkey : string; mutable hentry : entry option }

let hint () = { hkey = ""; hentry = None }

type t = {
  table : (string, entry) Lru.t;
  mutable enabled : bool;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  (* The inline hint {!parse} uses. A forwarding router's steady
     state is a run of same-program packets, so most parses resolve
     here with zero allocation — no key extraction, no LRU probe.
     Because [parse] re-arms the hint on every LRU access it makes,
     an inline hit is the LRU's MRU entry unless an external hint
     touched the LRU since: skipping the touch cannot change the
     eviction order. *)
  inline : hint;
  mutable flight : F.ring option;
  mutable fl_tick : int;
}

(* The LRU buckets by a full structural hash of the key string; for
   per-packet lookups that is measurable overhead (BENCH_PR2's
   pure-parse regression). Program prefixes differ early — FN_Num at
   byte 1, the first triple at bytes 6..11 — so an FNV-1a over the
   length, a bounded prefix and the last byte fingerprints just as
   well at a fraction of the cost. Collisions only cost a bucket-list
   comparison. *)
let fingerprint (key : string) =
  let h = ref 0x811c9dc5 in
  let step c = h := (!h lxor Char.code c) * 0x01000193 in
  let n = String.length key in
  step (Char.unsafe_chr (n land 0xff));
  for i = 0 to min n 24 - 1 do
    step (String.unsafe_get key i)
  done;
  if n > 24 then step (String.unsafe_get key (n - 1));
  !h land max_int

let create ?(capacity = 512) () =
  {
    table = Lru.create ~hash:fingerprint ~capacity:(max 1 capacity) ();
    enabled = capacity > 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    inline = hint ();
    flight = None;
    fl_tick = 0;
  }

let enabled t = t.enabled
let set_enabled t v = t.enabled <- v
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let set_flight t r = t.flight <- r
let flight t = t.flight

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
let size t = Lru.size t.table
let capacity t = Lru.capacity t.table

let arm h key e =
  h.hkey <- key;
  h.hentry <- Some e

let drop_hint t =
  t.inline.hkey <- "";
  t.inline.hentry <- None

let clear t =
  drop_hint t;
  Lru.clear t.table

(* The cache key: the raw basic-header + FN-definition prefix, with
   the hop-limit byte masked out (it decrements per hop but does not
   change the program). Packets of the same realization carry
   byte-identical prefixes, so the key is exact — no canonicalization
   or hashing ambiguity. [None] when the buffer cannot contain the
   prefix it announces; the cold parser then reports the right error. *)
let key_of buf =
  if Bitbuf.length buf < Header.basic_size then None
  else
    let fn_num = Bitbuf.get_uint8 buf 1 in
    let prefix = Header.basic_size + (fn_num * Fn.size) in
    if prefix > Bitbuf.length buf then None
    else begin
      let b = Bitbuf.sub_bytes buf ~pos:0 ~len:prefix in
      Bytes.set b 2 '\000';
      Some (Bytes.unsafe_to_string b)
    end

let view_of_entry e buf =
  {
    Packet.header =
      { e.header with Header.hop_limit = Bitbuf.get_uint8 buf 2 };
    fns = e.fns;
    loc_base = e.loc_base;
    buf;
  }

let insert t key (view : Packet.view) =
  let e =
    {
      header = { view.Packet.header with Header.hop_limit = 0 };
      header_len = Header.header_length view.Packet.header;
      fns = view.Packet.fns;
      loc_base = view.Packet.loc_base;
      depth = -1;
      verdict = None;
    }
  in
  (* [insert] is only reached on a miss, so the key is new: a full
     table means the LRU victim is about to be displaced. The victim
     could be the hinted entry, so the hint is dropped — it must not
     serve an entry whose verdict a later re-insert could contradict. *)
  if Lru.size t.table = Lru.capacity t.table then begin
    note_evict t;
    drop_hint t
  end;
  Lru.insert t.table key e;
  e

(* Does [buf]'s program prefix equal [key], hop-limit byte ignored?
   Byte 1 of the key is FN_Num, so byte equality implies the two
   prefixes have the same length — no allocation, no hashing. *)
let key_matches buf key =
  let klen = String.length key in
  klen > 0
  && Bitbuf.length buf >= klen
  && begin
       let i = ref 0 in
       while
         !i < klen
         && (!i = 2
            || Bitbuf.get_uint8 buf !i = Char.code (String.unsafe_get key !i))
       do
         incr i
       done;
       !i = klen
     end

let parse_hinted t h buf =
  match h.hentry with
  | Some e when key_matches buf h.hkey ->
      (* Same program as the previous packet through [h]: serve it
         without touching the key or the LRU. The packet must still be
         long enough for the header the prefix announces. *)
      if e.header_len > Bitbuf.length buf then
        Error "header exceeds packet bounds"
      else begin
        note_hit t;
        Ok (view_of_entry e buf, Some e)
      end
  | _ -> (
      match key_of buf with
      | None -> (
          (* Too short to hold its own FN definitions: always an error,
             and not a meaningful cache event. *)
          match Packet.parse buf with
          | Ok view -> Ok (view, None)
          | Error e -> Error e)
      | Some key -> (
          match Lru.find t.table key with
          | Some e ->
              (* Same program prefix, but the packet must still be long
                 enough for the header the prefix announces (the
                 locations region lies beyond the keyed bytes). *)
              if e.header_len > Bitbuf.length buf then
                Error "header exceeds packet bounds"
              else begin
                note_hit t;
                arm h key e;
                Ok (view_of_entry e buf, Some e)
              end
          | None -> (
              match Packet.parse buf with
              | Error _ as err -> err
              | Ok view ->
                  note_miss t;
                  let e = insert t key view in
                  arm h key e;
                  Ok (view, Some e))))

let parse t buf = parse_hinted t t.inline buf

let invalidate_key t key =
  let victims =
    Lru.fold
      (fun k e acc ->
        if Array.exists (fun fn -> Opkey.equal fn.Fn.key key) e.fns then
          k :: acc
        else acc)
      t.table []
  in
  List.iter (fun k -> ignore (Lru.remove t.table k)) victims;
  if victims <> [] then drop_hint t;
  List.length victims

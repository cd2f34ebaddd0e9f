(* Million-route FIB engines. See fib.mli for the design overview.

   Both engines intern next-hop values: a FIB has millions of routes
   but few distinct next hops, so the flat structures store small
   integer ids and the values live once in a growable pool. *)

module Pool = struct
  type 'a t = {
    mutable vals : 'a option array;
    mutable n : int;
    ids : ('a, int) Hashtbl.t;
  }

  let create () = { vals = Array.make 8 None; n = 0; ids = Hashtbl.create 16 }

  let intern p ~limit v =
    match Hashtbl.find_opt p.ids v with
    | Some id -> id
    | None ->
        let id = p.n in
        if id > limit then
          failwith "Fib: too many distinct next-hop values";
        if id = Array.length p.vals then begin
          let bigger = Array.make (2 * id) None in
          Array.blit p.vals 0 bigger 0 id;
          p.vals <- bigger
        end;
        p.vals.(id) <- Some v;
        Hashtbl.replace p.ids v id;
        p.n <- id + 1;
        id

  let get p id =
    if id < 0 || id >= p.n then invalid_arg "Fib.value: unknown id";
    match p.vals.(id) with Some v -> v | None -> assert false
end

module V4 = struct
  (* DIR-24-8: slot i of the /24 table holds a 16-bit entry for the
     256 addresses [i*256, (i+1)*256):
       0x0000            no route
       0x0001..0x7FFF    next-hop id + 1
       0x8000 lor b      resolved at /32 precision in spill block [b]
     A spill block is 256 entries (same encoding, minus the spill
     flag — blocks never nest). Shadow per-slot/per-entry "owner
     length" bytes (255 = empty) drive the classic incremental
     update: an insert of /L only overwrites slots whose current
     owner is shorter, a withdrawal re-covers exactly the slots the
     dead route owned from the side store.

     The 16.7M-slot table is split into 1024 chunks of 16384 slots,
     materialized on first write; unmaterialized chunks point at one
     zero chunk shared by every table, plus a packed whole-chunk
     cover word (for /0../10 routes, which cover whole chunks), and a
     default route costs 1024 words, not 16M slot writes. Until its
     first write a table also shares the three chunk arrays, so an
     empty table is a few words (DESIGN.md §16). The shared chunks
     and arrays are never written and are compared only by identity.

     The side store is one table keyed by [side_key len prefix]. *)

  let chunk_bits = 14
  let chunk_slots = 1 lsl chunk_bits
  let chunk_mask = chunk_slots - 1
  let n_chunks = 1 lsl (24 - chunk_bits)

  (* Read-only, shared by every table. *)
  let zero_ent = Bytes.make (chunk_slots * 2) '\000'
  let empty_len = Bytes.make chunk_slots '\xff'
  let shared_ent24 = Array.make n_chunks zero_ent
  let shared_len24 = Array.make n_chunks empty_len
  let shared_cover = Array.make n_chunks 0

  module Side = Hashtbl.Make (Int)

  type 'a t = {
    mutable ent24 : Bytes.t array;  (* per chunk: 16-bit LE entries *)
    mutable len24 : Bytes.t array;  (* per chunk: owner length bytes *)
    mutable cover_chunk : int array;
        (* per [zero_ent] chunk: (owner_len lsl 16) lor entry, 0 = none *)
    mutable spill_ent : Bytes.t;
    mutable spill_len : Bytes.t;
    mutable spill_deep : int array;  (* per block: entries owned by /25+ *)
    mutable blocks : int;
    mutable free : int list;
    pool : 'a Pool.t;
    side : int Side.t;  (* side_key len prefix -> id *)
  }

  let get16 b i = Bytes.get_uint16_le b (i lsl 1)
  let set16 b i v = Bytes.set_uint16_le b (i lsl 1) v
  let u32 a = Int32.to_int a land 0xFFFFFFFF

  let mask len a =
    if len = 0 then 0l else Int32.logand a (Int32.shift_left (-1l) (32 - len))

  (* [a] already masked to [len] bits. *)
  let side_key len a = (len lsl 32) lor u32 a

  let create () =
    {
      ent24 = shared_ent24;
      len24 = shared_len24;
      cover_chunk = shared_cover;
      spill_ent = Bytes.empty;
      spill_len = Bytes.empty;
      spill_deep = [||];
      blocks = 0;
      free = [];
      pool = Pool.create ();
      side = Side.create 8;
    }

  (* Before a table's first write: its own chunk arrays. *)
  let own t =
    if t.cover_chunk == shared_cover then begin
      t.ent24 <- Array.copy shared_ent24;
      t.len24 <- Array.copy shared_len24;
      t.cover_chunk <- Array.make n_chunks 0
    end

  let size t = Side.length t.side
  let value t id = Pool.get t.pool id

  let materialize t c =
    let ent = t.ent24.(c) in
    if ent != zero_ent then ent
    else begin
      let ent = Bytes.make (chunk_slots * 2) '\000' in
      let len = Bytes.make chunk_slots '\xff' in
      let cc = t.cover_chunk.(c) in
      if cc <> 0 then begin
        let ce = cc land 0xFFFF and cl = cc lsr 16 in
        for off = 0 to chunk_slots - 1 do
          set16 ent off ce
        done;
        Bytes.fill len 0 chunk_slots (Char.chr cl);
        t.cover_chunk.(c) <- 0
      end;
      t.ent24.(c) <- ent;
      t.len24.(c) <- len;
      ent
    end

  let alloc_block t =
    match t.free with
    | b :: rest ->
        t.free <- rest;
        b
    | [] ->
        let b = t.blocks in
        if b > 0x7FFF then
          failwith "Fib.V4: spill blocks exhausted (max 32768)";
        let need = (b + 1) * 512 in
        if Bytes.length t.spill_ent < need then begin
          let cap = max need (max 8192 (2 * Bytes.length t.spill_ent)) in
          let ne = Bytes.make cap '\000' in
          let nl = Bytes.make (cap / 2) '\xff' in
          Bytes.blit t.spill_ent 0 ne 0 (Bytes.length t.spill_ent);
          Bytes.blit t.spill_len 0 nl 0 (Bytes.length t.spill_len);
          t.spill_ent <- ne;
          t.spill_len <- nl;
          let nd = Array.make (cap / 512) 0 in
          Array.blit t.spill_deep 0 nd 0 (Array.length t.spill_deep);
          t.spill_deep <- nd
        end;
        t.blocks <- b + 1;
        b

  (* Turn slot [i] into a spill block seeded with its current cover. *)
  let spill_of_slot t i =
    let c = i lsr chunk_bits and off = i land chunk_mask in
    let ent = materialize t c in
    let cur = get16 ent off in
    if cur land 0x8000 <> 0 then cur land 0x7FFF
    else begin
      let b = alloc_block t in
      let cl = if cur = 0 then 0xFF else Bytes.get_uint8 t.len24.(c) off in
      for j = 0 to 255 do
        let k = (b lsl 8) lor j in
        set16 t.spill_ent k cur;
        Bytes.set_uint8 t.spill_len k cl
      done;
      t.spill_deep.(b) <- 0;
      set16 ent off (0x8000 lor b);
      Bytes.set_uint8 t.len24.(c) off 0xFF;
      b
    end

  (* Best remaining route shorter than [below] covering [a], as
     (entry, owner-length byte): (0, 0xFF) when none. *)
  let cover t a ~below =
    let rec go l =
      if l < 0 then (0, 0xFF)
      else
        match Side.find_opt t.side (side_key l (mask l a)) with
        | Some id -> (id + 1, l)
        | None -> go (l - 1)
    in
    go (below - 1)

  (* Slot [i]'s chunk must be materialized. *)
  let set_slot_covered t i e len =
    let c = i lsr chunk_bits and off = i land chunk_mask in
    let ent = t.ent24.(c) in
    let cur = get16 ent off in
    if cur land 0x8000 <> 0 then begin
      let b = cur land 0x7FFF in
      for j = 0 to 255 do
        let k = (b lsl 8) lor j in
        let ol = Bytes.get_uint8 t.spill_len k in
        let ol = if ol = 0xFF then -1 else ol in
        if ol <= len then begin
          set16 t.spill_ent k e;
          Bytes.set_uint8 t.spill_len k len
        end
      done
    end
    else
      let ol = if cur = 0 then -1 else Bytes.get_uint8 t.len24.(c) off in
      if ol <= len then begin
        set16 ent off e;
        Bytes.set_uint8 t.len24.(c) off len
      end

  let unset_slot t i len =
    let c = i lsr chunk_bits and off = i land chunk_mask in
    let ent = t.ent24.(c) in
    let cur = get16 ent off in
    if cur land 0x8000 <> 0 then begin
      let b = cur land 0x7FFF in
      for j = 0 to 255 do
        let k = (b lsl 8) lor j in
        if Bytes.get_uint8 t.spill_len k = len then begin
          let e', l' = cover t (Int32.of_int ((i lsl 8) lor j)) ~below:len in
          set16 t.spill_ent k e';
          Bytes.set_uint8 t.spill_len k l'
        end
      done
    end
    else if cur <> 0 && Bytes.get_uint8 t.len24.(c) off = len then begin
      let e', l' = cover t (Int32.of_int (i lsl 8)) ~below:len in
      set16 ent off e';
      Bytes.set_uint8 t.len24.(c) off l'
    end

  let insert t a ~len v =
    if len < 0 || len > 32 then invalid_arg "Fib.V4.insert: len in [0,32]";
    let a = mask len a in
    let id = Pool.intern t.pool ~limit:0x7FFE v in
    own t;
    Side.replace t.side (side_key len a) id;
    let e = id + 1 in
    if len <= 24 - chunk_bits then begin
      (* covers whole chunks *)
      let c0 = u32 a lsr (8 + chunk_bits) in
      let nc = 1 lsl (24 - chunk_bits - len) in
      for c = c0 to c0 + nc - 1 do
        if t.ent24.(c) == zero_ent then begin
          let cc = t.cover_chunk.(c) in
          let ccl = if cc = 0 then -1 else cc lsr 16 in
          if ccl <= len then t.cover_chunk.(c) <- (len lsl 16) lor e
        end
        else
          for off = 0 to chunk_slots - 1 do
            set_slot_covered t ((c lsl chunk_bits) lor off) e len
          done
      done
    end
    else if len <= 24 then begin
      let base = u32 a lsr 8 in
      let n = 1 lsl (24 - len) in
      ignore (materialize t (base lsr chunk_bits));
      for i = base to base + n - 1 do
        set_slot_covered t i e len
      done
    end
    else begin
      let slot = u32 a lsr 8 in
      let b = spill_of_slot t slot in
      let base = u32 a land 0xFF in
      let w = 1 lsl (32 - len) in
      for j = base to base + w - 1 do
        let k = (b lsl 8) lor j in
        let ol = Bytes.get_uint8 t.spill_len k in
        let ol = if ol = 0xFF then -1 else ol in
        if ol <= len then begin
          if ol < 25 then t.spill_deep.(b) <- t.spill_deep.(b) + 1;
          set16 t.spill_ent k e;
          Bytes.set_uint8 t.spill_len k len
        end
      done
    end

  let remove t a ~len =
    if len < 0 || len > 32 then invalid_arg "Fib.V4.remove: len in [0,32]";
    let a = mask len a in
    let key = side_key len a in
    if not (Side.mem t.side key) then false
    else begin
      Side.remove t.side key;
      if len <= 24 - chunk_bits then begin
        let c0 = u32 a lsr (8 + chunk_bits) in
        let nc = 1 lsl (24 - chunk_bits - len) in
        for c = c0 to c0 + nc - 1 do
          if t.ent24.(c) == zero_ent then begin
            let cc = t.cover_chunk.(c) in
            if cc <> 0 && cc lsr 16 = len then begin
              let e', l' =
                cover t (Int32.of_int (c lsl (chunk_bits + 8))) ~below:len
              in
              t.cover_chunk.(c) <-
                (if e' = 0 then 0 else (l' lsl 16) lor e')
            end
          end
          else
            for off = 0 to chunk_slots - 1 do
              unset_slot t ((c lsl chunk_bits) lor off) len
            done
        done
      end
      else if len <= 24 then begin
        let base = u32 a lsr 8 in
        let n = 1 lsl (24 - len) in
        for i = base to base + n - 1 do
          unset_slot t i len
        done
      end
      else begin
        let slot = u32 a lsr 8 in
        let c = slot lsr chunk_bits and off = slot land chunk_mask in
        let ent = t.ent24.(c) in
        let cur = get16 ent off in
        (* the owner existed, so the slot must be spilled *)
        if cur land 0x8000 <> 0 then begin
          let b = cur land 0x7FFF in
          let base = u32 a land 0xFF in
          let w = 1 lsl (32 - len) in
          for j = base to base + w - 1 do
            let k = (b lsl 8) lor j in
            if Bytes.get_uint8 t.spill_len k = len then begin
              let e', l' =
                cover t (Int32.of_int ((slot lsl 8) lor j)) ~below:len
              in
              if l' = 0xFF || l' < 25 then
                t.spill_deep.(b) <- t.spill_deep.(b) - 1;
              set16 t.spill_ent k e';
              Bytes.set_uint8 t.spill_len k l'
            end
          done;
          if t.spill_deep.(b) = 0 then begin
            (* no /25+ owner left: every entry now holds the same
               <= /24 cover, so fold the block back into the slot *)
            let k0 = b lsl 8 in
            set16 ent off (get16 t.spill_ent k0);
            Bytes.set_uint8 t.len24.(c) off (Bytes.get_uint8 t.spill_len k0);
            t.free <- b :: t.free
          end
        end
      end;
      true
    end

  let find_exact t a ~len =
    if len < 0 || len > 32 then invalid_arg "Fib.V4.find_exact: len in [0,32]";
    match Side.find_opt t.side (side_key len (mask len a)) with
    | Some id -> Some (Pool.get t.pool id)
    | None -> None

  let lookup_int t u =
    let u = u land 0xFFFFFFFF in
    let i = u lsr 8 in
    let c = i lsr chunk_bits in
    let e =
      Bytes.get_uint16_le
        (Array.unsafe_get t.ent24 c)
        ((i land chunk_mask) lsl 1)
    in
    if e = 0 then (Array.unsafe_get t.cover_chunk c land 0xFFFF) - 1
    else if e land 0x8000 = 0 then e - 1
    else
      let k = ((e land 0x7FFF) lsl 8) lor (u land 0xFF) in
      Bytes.get_uint16_le t.spill_ent (k lsl 1) - 1

  let lookup_id t a = lookup_int t (Int32.to_int a)

  let lookup t a =
    let u = u32 a in
    let i = u lsr 8 in
    let c = i lsr chunk_bits and off = i land chunk_mask in
    let e = get16 t.ent24.(c) off in
    if e = 0 then begin
      let cc = t.cover_chunk.(c) in
      if cc = 0 then None
      else Some (cc lsr 16, Pool.get t.pool ((cc land 0xFFFF) - 1))
    end
    else if e land 0x8000 = 0 then
      Some (Bytes.get_uint8 t.len24.(c) off, Pool.get t.pool (e - 1))
    else begin
      let k = ((e land 0x7FFF) lsl 8) lor (u land 0xFF) in
      let e2 = get16 t.spill_ent k in
      if e2 = 0 then None
      else Some (Bytes.get_uint8 t.spill_len k, Pool.get t.pool (e2 - 1))
    end

  let fold f t init =
    Side.fold
      (fun key id acc ->
        let a = Int32.of_int (key land 0xFFFFFFFF) in
        f a (key lsr 32) (Pool.get t.pool id) acc)
      t.side init

  type stats = {
    routes : int;
    next_hops : int;
    chunks : int;
    spill_blocks : int;
    lookup_bytes : int;
    total_bytes : int;
  }

  (* The shared chunks and, until the first write, the shared chunk
     arrays are charged to no table. *)
  let stats t =
    let chunks = ref 0 in
    Array.iter (fun c -> if c != zero_ent then incr chunks) t.ent24;
    let owned = if t.cover_chunk == shared_cover then 0 else 3 * n_chunks in
    let lookup_bytes =
      (!chunks * 3 * chunk_slots)
      + Bytes.length t.spill_ent + Bytes.length t.spill_len
      + 8 * (Array.length t.spill_deep + owned + Array.length t.pool.Pool.vals)
    in
    let side =
      (* rough control-plane accounting: a side-table binding is a
         4-word cell plus its bucket slots *)
      (size t * 48) + (Hashtbl.length t.pool.Pool.ids * 48)
    in
    {
      routes = size t;
      next_hops = t.pool.Pool.n;
      chunks = !chunks;
      spill_blocks = t.blocks - List.length t.free;
      lookup_bytes;
      total_bytes = lookup_bytes + side;
    }


  let shared_pristine () =
    Bytes.for_all (( = ) '\000') zero_ent
    && Bytes.for_all (( = ) '\xff') empty_len
    && Array.for_all (( == ) zero_ent) shared_ent24
    && Array.for_all (( == ) empty_len) shared_len24
    && Array.for_all (( = ) 0) shared_cover
end

module V6 = struct
  (* Compressed stride-8 multibit trie with controlled prefix
     expansion: a prefix of length L lives at node depth
     d = (L-1)/8, expanded over 2^(8 - (L - 8d)) consecutive slots.
     Nodes hold sorted sparse parallel arrays (binary search) until
     [promote_at] distinct slots, then promote to dense 256-way
     arrays — realistic v6 tables are bushy near /32../48 and sparse
     elsewhere, which is exactly what this bounds. *)

  let promote_at = 48

  type node = {
    mutable dense : bool;
    mutable n : int;  (* populated slots while sparse *)
    mutable keys : int array;  (* sparse only: sorted slot indices *)
    mutable ents : int array;  (* id + 1, 0 = none *)
    mutable lens : int array;  (* owner length, -1 = none *)
    mutable kids : node array;  (* [nil] = no child *)
  }

  (* Shared "no child" sentinel; never mutated (inserts replace it
     with a fresh node before descending). *)
  let nil =
    { dense = false; n = 0; keys = [||]; ents = [||]; lens = [||]; kids = [||] }

  let sparse () =
    {
      dense = false;
      n = 0;
      keys = Array.make 4 0;
      ents = Array.make 4 0;
      lens = Array.make 4 (-1);
      kids = Array.make 4 nil;
    }

  type 'a t = {
    root : node;
    mutable default : int;  (* id + 1 for the /0 route, 0 = none *)
    pool : 'a Pool.t;
    side : (int * Ipaddr.V6.t, int) Hashtbl.t;  (* (len, masked prefix) -> id *)
  }

  let create () =
    {
      root = sparse ();
      default = 0;
      pool = Pool.create ();
      side = Hashtbl.create 8;
    }

  let size t = Hashtbl.length t.side
  let value t id = Pool.get t.pool id

  let byte_at hi lo d =
    if d < 8 then Int64.to_int (Int64.shift_right_logical hi (56 - (8 * d))) land 0xFF
    else Int64.to_int (Int64.shift_right_logical lo (120 - (8 * d))) land 0xFF

  let mask6 (hi, lo) len =
    if len <= 0 then (0L, 0L)
    else if len >= 128 then (hi, lo)
    else if len = 64 then (hi, 0L)
    else if len < 64 then (Int64.logand hi (Int64.shift_left (-1L) (64 - len)), 0L)
    else (hi, Int64.logand lo (Int64.shift_left (-1L) (128 - len)))

  (* Index of slot [b] in a sparse node, or -1. *)
  let sfind node b =
    let lo = ref 0 and hi = ref (node.n - 1) and res = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) lsr 1 in
      let k = node.keys.(mid) in
      if k = b then begin
        res := mid;
        lo := !hi + 1
      end
      else if k < b then lo := mid + 1
      else hi := mid - 1
    done;
    !res

  let promote node =
    let ents = Array.make 256 0 in
    let lens = Array.make 256 (-1) in
    let kids = Array.make 256 nil in
    for i = 0 to node.n - 1 do
      let b = node.keys.(i) in
      ents.(b) <- node.ents.(i);
      lens.(b) <- node.lens.(i);
      kids.(b) <- node.kids.(i)
    done;
    node.dense <- true;
    node.keys <- [||];
    node.ents <- ents;
    node.lens <- lens;
    node.kids <- kids

  (* Index of slot [b], creating it (possibly promoting the node). *)
  let ensure node b =
    if node.dense then b
    else
      let i = sfind node b in
      if i >= 0 then i
      else if node.n >= promote_at then begin
        promote node;
        b
      end
      else begin
        if node.n = Array.length node.keys then begin
          let cap = 2 * node.n in
          let gk = Array.make cap 0 in
          let ge = Array.make cap 0 in
          let gl = Array.make cap (-1) in
          let gc = Array.make cap nil in
          Array.blit node.keys 0 gk 0 node.n;
          Array.blit node.ents 0 ge 0 node.n;
          Array.blit node.lens 0 gl 0 node.n;
          Array.blit node.kids 0 gc 0 node.n;
          node.keys <- gk;
          node.ents <- ge;
          node.lens <- gl;
          node.kids <- gc
        end;
        let p = ref node.n in
        while !p > 0 && node.keys.(!p - 1) > b do
          node.keys.(!p) <- node.keys.(!p - 1);
          node.ents.(!p) <- node.ents.(!p - 1);
          node.lens.(!p) <- node.lens.(!p - 1);
          node.kids.(!p) <- node.kids.(!p - 1);
          decr p
        done;
        node.keys.(!p) <- b;
        node.ents.(!p) <- 0;
        node.lens.(!p) <- -1;
        node.kids.(!p) <- nil;
        node.n <- node.n + 1;
        !p
      end

  let sidx node b = if node.dense then b else sfind node b

  let insert t addr ~len v =
    if len < 0 || len > 128 then invalid_arg "Fib.V6.insert: len in [0,128]";
    let (hi, lo) = mask6 addr len in
    let id = Pool.intern t.pool ~limit:(max_int - 1) v in
    Hashtbl.replace t.side (len, (hi, lo)) id;
    if len = 0 then t.default <- id + 1
    else begin
      let d = (len - 1) / 8 in
      let rem = len - (d * 8) in
      let w = 1 lsl (8 - rem) in
      let node = ref t.root in
      for depth = 0 to d - 1 do
        let b = byte_at hi lo depth in
        let i = ensure !node b in
        let k = (!node).kids.(i) in
        if k == nil then begin
          let fresh = sparse () in
          (!node).kids.(i) <- fresh;
          node := fresh
        end
        else node := k
      done;
      let base = byte_at hi lo d land lnot (w - 1) in
      for b = base to base + w - 1 do
        let i = ensure !node b in
        if (!node).lens.(i) <= len then begin
          (!node).ents.(i) <- id + 1;
          (!node).lens.(i) <- len
        end
      done
    end

  (* Best remaining route covering the address whose top [floor] bits
     match the removed prefix and whose stride-d byte is [b], with
     length in (floor, below) — shorter covers live at shallower
     nodes and must not be written into this node. *)
  let cover6 t hi lo b ~floor ~below =
    let d = floor / 8 in
    let hi0, lo0 = mask6 (hi, lo) floor in
    let hi_b, lo_b =
      if d < 8 then
        (Int64.logor hi0 (Int64.shift_left (Int64.of_int b) (56 - (8 * d))), lo0)
      else
        (hi0, Int64.logor lo0 (Int64.shift_left (Int64.of_int b) (120 - (8 * d))))
    in
    let rec go l =
      if l <= floor then (0, -1)
      else
        match Hashtbl.find_opt t.side (l, mask6 (hi_b, lo_b) l) with
        | Some id -> (id + 1, l)
        | None -> go (l - 1)
    in
    go (below - 1)

  let remove t addr ~len =
    if len < 0 || len > 128 then invalid_arg "Fib.V6.remove: len in [0,128]";
    let (hi, lo) = mask6 addr len in
    let key = (len, (hi, lo)) in
    if not (Hashtbl.mem t.side key) then false
    else begin
      Hashtbl.remove t.side key;
      if len = 0 then t.default <- 0
      else begin
        let d = (len - 1) / 8 in
        let rem = len - (d * 8) in
        let w = 1 lsl (8 - rem) in
        let node = ref t.root and alive = ref true in
        for depth = 0 to d - 1 do
          if !alive then begin
            let b = byte_at hi lo depth in
            let i = sidx !node b in
            if i < 0 then alive := false
            else begin
              let k = (!node).kids.(i) in
              if k == nil then alive := false else node := k
            end
          end
        done;
        if !alive then begin
          let floor = d * 8 in
          let base = byte_at hi lo d land lnot (w - 1) in
          for b = base to base + w - 1 do
            let i = sidx !node b in
            if i >= 0 && (!node).lens.(i) = len then begin
              let e', l' = cover6 t hi lo b ~floor ~below:len in
              (!node).ents.(i) <- e';
              (!node).lens.(i) <- l'
            end
          done
        end
      end;
      true
    end

  let find_exact t addr ~len =
    if len < 0 || len > 128 then invalid_arg "Fib.V6.find_exact: len in [0,128]";
    match Hashtbl.find_opt t.side (len, mask6 addr len) with
    | Some id -> Some (Pool.get t.pool id)
    | None -> None

  let lookup_id t hi lo =
    let best = ref (t.default - 1) in
    let node = ref t.root and depth = ref 0 and stop = ref false in
    while not !stop do
      let nd = !node in
      let b = byte_at hi lo !depth in
      let i = if nd.dense then b else sfind nd b in
      if i < 0 then stop := true
      else begin
        if nd.ents.(i) <> 0 then best := nd.ents.(i) - 1;
        let k = nd.kids.(i) in
        if k == nil || !depth = 15 then stop := true
        else begin
          node := k;
          incr depth
        end
      end
    done;
    !best

  let lookup t (hi, lo) =
    let best = ref (t.default - 1) and best_len = ref 0 in
    let node = ref t.root and depth = ref 0 and stop = ref false in
    while not !stop do
      let nd = !node in
      let b = byte_at hi lo !depth in
      let i = if nd.dense then b else sfind nd b in
      if i < 0 then stop := true
      else begin
        if nd.ents.(i) <> 0 then begin
          best := nd.ents.(i) - 1;
          best_len := nd.lens.(i)
        end;
        let k = nd.kids.(i) in
        if k == nil || !depth = 15 then stop := true
        else begin
          node := k;
          incr depth
        end
      end
    done;
    if !best < 0 then None else Some (!best_len, Pool.get t.pool !best)

  let fold f t init =
    Hashtbl.fold (fun (len, a) id acc -> f a len (Pool.get t.pool id) acc) t.side init

  type stats = {
    routes : int;
    next_hops : int;
    nodes : int;
    dense_nodes : int;
    lookup_bytes : int;
    total_bytes : int;
  }

  let stats t =
    let nodes = ref 0 and dense = ref 0 and bytes = ref 0 in
    let rec go nd =
      if nd != nil then begin
        incr nodes;
        if nd.dense then incr dense;
        bytes :=
          !bytes
          + 8
            * (8 + Array.length nd.keys + Array.length nd.ents
              + Array.length nd.lens + Array.length nd.kids);
        Array.iter go nd.kids
      end
    in
    go t.root;
    let lookup_bytes = !bytes + (8 * Array.length t.pool.Pool.vals) in
    let side =
      (* a (len, (hi, lo)) key of boxed int64s is ~12 words, plus the
         binding's cell and bucket slots *)
      (size t * 144) + (Hashtbl.length t.pool.Pool.ids * 48)
    in
    {
      routes = size t;
      next_hops = t.pool.Pool.n;
      nodes = !nodes;
      dense_nodes = !dense;
      lookup_bytes;
      total_bytes = lookup_bytes + side;
    }

end

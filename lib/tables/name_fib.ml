type 'a node = {
  children : (string, 'a node) Hashtbl.t;
  mutable value : 'a option;
}

(* The exact-match index on hashed names: slot [s] of [by_hash] holds
   [hashed.(s)], stored as an option so that a hit returns it as it
   is. [collided] lists the hashes that two registered names have
   shared: removing a name with one of those hashes rebinds its slot
   to a survivor, if one remains. *)
type 'a t = {
  root : 'a node;
  by_hash : Slots.t;
  mutable hashed : 'a option array;
  mutable collided : int list;
  mutable count : int;
}

let key32 h = Int32.to_int h land 0xFFFF_FFFF

let fresh () = { children = Hashtbl.create 4; value = None }

let create () =
  {
    root = fresh ();
    by_hash = Slots.create ~ordered:false;
    hashed = [||];
    collided = [];
    count = 0;
  }
let size t = t.count

let insert t name v =
  let before = t.count in
  let rec go node = function
    | [] ->
        if node.value = None then t.count <- t.count + 1;
        node.value <- Some v
    | c :: rest ->
        let next =
          match Hashtbl.find_opt node.children c with
          | Some n -> n
          | None ->
              let n = fresh () in
              Hashtbl.add node.children c n;
              n
        in
        go next rest
  in
  go t.root (Name.components name);
  let h = key32 (Name.hash32 name) in
  let s = Slots.find t.by_hash h in
  if s >= 0 && t.count > before && not (List.mem h t.collided) then
    t.collided <- h :: t.collided;
  let s = if s >= 0 then s else Slots.add t.by_hash h in
  t.hashed <- Slots.fit t.hashed t.by_hash None;
  t.hashed.(s) <- Some v

let fold f t init =
  let rec go node path_rev acc =
    let acc =
      match node.value with
      | Some v when path_rev <> [] ->
          f (Name.of_components (List.rev path_rev)) v acc
      | _ -> acc
    in
    Hashtbl.fold (fun c n acc -> go n (c :: path_rev) acc) node.children acc
  in
  go t.root [] init

let remove t name =
  let rec go node = function
    | [] -> (
        match node.value with
        | None -> false
        | Some _ ->
            node.value <- None;
            t.count <- t.count - 1;
            true)
    | c :: rest -> (
        match Hashtbl.find_opt node.children c with
        | None -> false
        | Some n ->
            let removed = go n rest in
            if removed && n.value = None && Hashtbl.length n.children = 0 then
              Hashtbl.remove node.children c;
            removed)
  in
  let removed = go t.root (Name.components name) in
  (if removed then
     let h = key32 (Name.hash32 name) in
     let s = Slots.find t.by_hash h in
     let survivor () =
       fold
         (fun n v acc -> if key32 (Name.hash32 n) = h then Some v else acc)
         t None
     in
     match if List.mem h t.collided then survivor () else None with
     | Some v -> t.hashed.(s) <- Some v
     | None ->
         t.collided <- List.filter (( <> ) h) t.collided;
         if s >= 0 then begin
           Slots.remove t.by_hash s;
           t.hashed.(s) <- None
         end);
  removed

let lookup t name =
  let rec go node comps taken best =
    let best =
      match node.value with
      | Some v when taken > 0 -> Some (taken, v)
      | Some v -> Some (taken, v) (* root binding: a default route *)
      | None -> best
    in
    match comps with
    | [] -> best
    | c :: rest -> (
        match Hashtbl.find_opt node.children c with
        | None -> best
        | Some n -> go n rest (taken + 1) best)
  in
  match go t.root (Name.components name) 0 None with
  | None -> None
  | Some (0, _) -> None (* a zero-component "name" cannot be built *)
  | Some (k, v) -> Some (Name.prefix name k, v)

let find_hash t h =
  let s = Slots.find t.by_hash h in
  if s < 0 then None else t.hashed.(s)

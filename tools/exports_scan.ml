(* Lists the exported values of a library tree that no caller outside
   their own module names, and the optional arguments that no such
   call passes, by qualified path.

     exports_scan [-expected FILE] LIBDIR [DIR ...]

   LIBDIR is searched recursively: each directory holding .ml or .mli
   files is one library, wrapped under the module its dune file names
   (or unwrapped, with no dune file). Its exports are the `val`s of its
   .mli files, at their nested module path (`V4.remove` in fib.mli);
   `val`s of a `module type` are requirements, not exports. Each DIR
   is a directory of further .ml files (not searched recursively) whose
   references count. A reference is resolved through the library's own
   unqualified unit names, `Lib.M.v` paths, `open`, `let open`, `M.(e)`,
   `include` and `module X = ...` aliases, so units that share a name
   across libraries stay apart. A name bound by `let` or a `match`
   case shadows an opened one; a function parameter does not, so such
   a name counts as called. An explicit `val` that an included module
   type also requires counts as called. An optional argument `?l`
   counts as passed only where a call outside its module passes `~l`
   or `?l`, or where the function is used as a value (its calls are
   then out of sight).

   Prints one line per finding, sorted: `<mli> <path>:` for an
   uncalled value and `<mli> <path> ?<label>:` for an unpassed
   optional argument. With -expected, a finding already listed there
   as `<line> <reason>` is printed with its reason. *)

open Parsetree
open Longident

(* --- files ------------------------------------------------------- *)

let read_file f = In_channel.with_open_bin f In_channel.input_all

let sorted_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun n -> Filename.concat dir n)

let has_ext ext f = Filename.check_suffix f ext
let is_source f = has_ext ".ml" f || has_ext ".mli" f

let parse f what =
  let lb = Lexing.from_string (read_file f) in
  Location.init lb f;
  try what lb
  with exn ->
    Location.report_exception Format.err_formatter exn;
    exit 2

let unit_name f = String.capitalize_ascii Filename.(remove_extension (basename f))

(* The wrapper name a dune file gives its library: the atom after the
   first `(name`, if any. *)
let library_name dir =
  let f = Filename.concat dir "dune" in
  if not (Sys.file_exists f) then None
  else
    let s = read_file f in
    let key = "(name " in
    let rec find i =
      if i + String.length key > String.length s then None
      else if String.sub s i (String.length key) = key then
        let j = i + String.length key in
        let k = ref j in
        while !k < String.length s && not (String.contains ") \n" s.[!k]) do
          incr k
        done;
        Some (String.capitalize_ascii (String.sub s j (!k - j)))
      else find (i + 1)
    in
    find 0

(* --- the model --------------------------------------------------- *)

(* The unqualified unit names of a directory. *)
type scope = { units : (string, mref Lazy.t) Hashtbl.t }

and mref =
  | Sig of sigm                          (* a signature in an .mli of LIBDIR *)
  | Wrapper of scope                     (* a library's wrapper module *)
  | Str of (string * mref Lazy.t) list   (* a structure in an .ml: its modules *)
  | Opaque                               (* anything else *)

(* A functor's signature is its result's, with its parameter's type. *)
and sigm = {
  file : string;
  path : string list;
  items : signature;
  scope : scope;
  param : module_type option;
}

type entry = {
  mli : string;
  key : string;             (* dotted path inside the .mli *)
  labels : string list;     (* its optional arguments *)
  mutable called : bool;    (* by a caller outside its own module *)
  mutable passed : string list;
}

let entries : (string * string, entry) Hashtbl.t = Hashtbl.create 1024
let wrappers : (string, mref Lazy.t) Hashtbl.t = Hashtbl.create 16

let find tbl x = match Hashtbl.find_opt tbl x with Some m -> Lazy.force m | None -> Opaque

let mod_name (n : string option Asttypes.loc) = Option.value n.txt ~default:"_"

let rec optional_labels t =
  match t.ptyp_desc with
  | Ptyp_arrow (Optional l, _, rest) -> l :: optional_labels rest
  | Ptyp_arrow (_, _, rest) -> optional_labels rest
  | Ptyp_poly (_, t) -> optional_labels t
  | _ -> []

let rec sig_member s x =
  let rec find = function
    | [] -> Opaque
    | { psig_desc = Psig_module { pmd_name; pmd_type; _ }; _ } :: _
      when pmd_name.txt = Some x ->
        of_mty s.scope s.file (s.path @ [ x ]) pmd_type
    | _ :: rest -> find rest
  in
  find s.items

(* A functor stands for its result: `Make (X).v` is `Make.v`. *)
and of_mty ?param scope file path mty =
  match mty.pmty_desc with
  | Pmty_signature items -> Sig { file; path; items; scope; param }
  | Pmty_functor (Named (_, p), body) -> of_mty ~param:p scope file path body
  | Pmty_functor (_, body) -> of_mty scope file path body
  | Pmty_with (m, _) -> of_mty scope file path m
  | Pmty_alias lid -> resolve_in scope [] lid.txt
  | _ -> Opaque

and member m x =
  match m with
  | Sig s -> sig_member s x
  | Wrapper sc -> find sc.units x
  | Str mods -> (match List.assoc_opt x mods with Some m -> Lazy.force m | None -> Opaque)
  | Opaque -> Opaque

and resolve_in scope mods = function
  | Lident x -> (
      match List.assoc_opt x mods with
      | Some m -> Lazy.force m
      | None -> if Hashtbl.mem scope.units x then find scope.units x else find wrappers x)
  | Ldot (p, x) -> member (resolve_in scope mods p) x
  | Lapply _ -> Opaque

let sig_value s x =
  List.find_map
    (function
      | { psig_desc = Psig_value v; _ } when v.pval_name.txt = x ->
          Hashtbl.find_opt entries (s.file, String.concat "." (s.path @ [ x ]))
      | _ -> None)
    s.items

(* The `val` names the module type [mty] requires, seen from [s]. *)
let required s mty =
  let mty_items m name =
    match m with
    | Sig s ->
        List.find_map
          (function
            | { psig_desc = Psig_modtype { pmtd_name; pmtd_type = Some t; _ }; _ }
              when pmtd_name.txt = name -> (
                match t.pmty_desc with Pmty_signature items -> Some items | _ -> None)
            | _ -> None)
          s.items
    | _ -> None
  in
  let rec items mty =
    match mty.pmty_desc with
    | Pmty_signature items -> Some items
    | Pmty_with (m, _) -> items m
    | Pmty_ident { txt = Lident name; _ } -> mty_items (Sig s) name
    | Pmty_ident { txt = Ldot (p, name); _ } -> mty_items (resolve_in s.scope [] p) name
    | _ -> None
  in
  List.filter_map
    (function { psig_desc = Psig_value v; _ } -> Some v.pval_name.txt | _ -> None)
    (Option.value (items mty) ~default:[])

(* Registers every `val` of the signature [s] and of its submodules. *)
let rec collect s =
  let requires =
    List.concat_map
      (function
        | { psig_desc = Psig_include { pincl_mod; _ }; _ } -> required s pincl_mod
        | _ -> [])
      s.items
  in
  List.iter
    (fun item ->
      match item.psig_desc with
      | Psig_value v ->
          let key = String.concat "." (s.path @ [ v.pval_name.txt ]) in
          Hashtbl.replace entries (s.file, key)
            { mli = s.file; key; labels = optional_labels v.pval_type;
              called = List.mem v.pval_name.txt requires; passed = [] }
      | Psig_module { pmd_name; pmd_type; _ } -> (
          match of_mty s.scope s.file (s.path @ [ mod_name pmd_name ]) pmd_type with
          | Sig sub when sub.file = s.file && sub.path <> s.path -> collect sub
          | _ -> ())
      | _ -> ())
    s.items

(* --- references -------------------------------------------------- *)

type vref = Entry of entry | Local

type env = { mods : (string * mref Lazy.t) list; vals : (string * vref) list }

let scopes : (string, scope) Hashtbl.t = Hashtbl.create 16
let sigs : sigm list ref = ref []
let walked : (string, (string * mref Lazy.t) list) Hashtbl.t = Hashtbl.create 64
let walk_ml : (string -> (string * mref Lazy.t) list) ref = ref (fun _ -> [])

let pattern_vars p =
  let vars = ref [] in
  let it =
    { Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var v | Ppat_alias (_, v) -> vars := v.txt :: !vars
          | _ -> ());
          Ast_iterator.default_iterator.pat it p) }
  in
  it.pat it p;
  !vars

(* Walks one .ml file, marking the entries it calls, and returns the
   modules its top-level structure defines. *)
let walk file scope items =
  let own = file ^ "i" in
  let env = ref { mods = []; vals = [] } in
  (* The signature of [own] that the structure being walked implements:
     its top-level values are that signature's entries, so a call inside
     the module passes their optional arguments too. *)
  let here = ref (List.find_opt (fun s -> s.file = own) !sigs) in
  let scoped f =
    let saved = !env in
    Fun.protect ~finally:(fun () -> env := saved) f
  in
  let resolve lid = resolve_in scope !env.mods lid in
  let bind_val x v = env := { !env with vals = (x, v) :: !env.vals } in
  let shadow names = List.iter (fun x -> bind_val x Local) names in
  let bind name m = env := { !env with mods = (name, m) :: !env.mods } in
  let open_ m =
    match m with
    | Sig s ->
        List.iter
          (fun item ->
            match item.psig_desc with
            | Psig_value { pval_name = { txt = x; _ }; _ } ->
                bind_val x (match sig_value s x with Some e -> Entry e | None -> Local)
            | Psig_module { pmd_name = { txt = Some x; _ }; _ } ->
                bind x (lazy (sig_member s x))
            | _ -> ())
          s.items
    | Wrapper sc -> Hashtbl.iter (fun x m -> bind x m) sc.units
    | Str mods -> List.iter (fun (x, m) -> bind x m) (List.rev mods)
    | Opaque -> ()
  in
  let call lid labels =
    let e =
      match lid with
      | Lident x -> (
          match List.assoc_opt x !env.vals with Some (Entry e) -> Some e | _ -> None)
      | Ldot (p, x) -> (match resolve p with Sig s -> sig_value s x | _ -> None)
      | Lapply _ -> None
    in
    Option.iter
      (fun e ->
        if e.mli <> own then e.called <- true;
        e.passed <- (match labels with None -> e.labels | Some l -> l) @ e.passed)
      e
  in
  (* The values of [arg] that a functor's parameter requires are
     called; the Stdlib's functors are known by name. *)
  let apply f fm arg =
    match arg with
    | Sig a when a.file <> own ->
        let names =
          match (fm, f.pmod_desc) with
          | Sig ({ param = Some p; _ } as s), _ -> required s p
          | _, Pmod_ident { txt = Ldot (Lident ("Set" | "Map"), "Make"); _ } ->
              [ "compare" ]
          | _, Pmod_ident { txt = Ldot (Lident "Hashtbl", "Make"); _ } ->
              [ "equal"; "hash" ]
          | _ -> []
        in
        List.iter (fun x -> Option.iter (fun e -> e.called <- true) (sig_value a x)) names
    | _ -> ()
  in
  let rec it : Ast_iterator.iterator =
    { Ast_iterator.default_iterator with
      expr = (fun _ e -> expr e);
      case =
        (fun _ c ->
          scoped (fun () ->
              it.pat it c.pc_lhs;
              shadow (pattern_vars c.pc_lhs);
              Option.iter (it.expr it) c.pc_guard;
              it.expr it c.pc_rhs));
      module_expr = (fun _ me -> ignore (module_expr me));
      structure = (fun _ s -> ignore (scoped (fun () -> structure s))) }
  and expr e =
    match e.pexp_desc with
    | Pexp_ident lid -> call lid.txt None
    | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, args) ->
        let passed =
          List.filter_map
            (function (Asttypes.Labelled l | Optional l), _ -> Some l | _ -> None)
            args
        in
        call lid.txt (Some passed);
        List.iter (fun (_, a) -> it.expr it a) args
    | Pexp_open (od, body) ->
        scoped (fun () ->
            open_ (module_expr od.popen_expr);
            it.expr it body)
    | Pexp_letmodule (name, me, body) ->
        let m = module_expr me in
        scoped (fun () ->
            bind (mod_name name) (lazy m);
            it.expr it body)
    | Pexp_let (_, vbs, body) ->
        List.iter (it.value_binding it) vbs;
        scoped (fun () ->
            shadow (List.concat_map (fun vb -> pattern_vars vb.pvb_pat) vbs);
            it.expr it body)
    | _ -> Ast_iterator.default_iterator.expr it e
  and module_expr me =
    match me.pmod_desc with
    | Pmod_ident lid -> resolve lid.txt
    | Pmod_structure s -> Str (scoped (fun () -> structure s))
    | Pmod_functor (param, body) ->
        scoped (fun () ->
            (match param with
            | Named ({ txt = Some x; _ }, _) -> bind x (lazy Opaque)
            | _ -> ());
            ignore (module_expr body));
        Opaque
    | Pmod_apply (f, arg) ->
        let fm = module_expr f in
        apply f fm (module_expr arg);
        (match fm with Sig _ -> fm | _ -> Opaque)
    | Pmod_constraint (me, _) -> module_expr me
    | _ ->
        Ast_iterator.default_iterator.module_expr it me;
        Opaque
  (* Returns the modules the structure defines, latest first. *)
  and structure items =
    List.fold_left
      (fun defined item ->
        match item.pstr_desc with
        | Pstr_open od ->
            open_ (module_expr od.popen_expr);
            defined
        | Pstr_include incl ->
            let m = module_expr incl.pincl_mod in
            open_ m;
            (match m with Str mods -> mods @ defined | _ -> defined)
        | Pstr_module mb ->
            let name = mod_name mb.pmb_name and outer = !here in
            here :=
              Option.bind outer (fun s ->
                  match sig_member s name with
                  | Sig sub when sub.file = own -> Some sub
                  | _ -> None);
            let m =
              Fun.protect
                ~finally:(fun () -> here := outer)
                (fun () -> module_expr mb.pmb_expr)
            in
            bind name (Lazy.from_val m);
            (name, Lazy.from_val m) :: defined
        | Pstr_recmodule mbs ->
            List.iter (fun mb -> bind (mod_name mb.pmb_name) (lazy Opaque)) mbs;
            List.iter (fun mb -> ignore (module_expr mb.pmb_expr)) mbs;
            defined
        | Pstr_value (_, vbs) ->
            List.iter (it.value_binding it) vbs;
            List.iter
              (fun x ->
                bind_val x
                  (match Option.bind !here (fun s -> sig_value s x) with
                  | Some e -> Entry e
                  | None -> Local))
              (List.concat_map (fun vb -> pattern_vars vb.pvb_pat) vbs);
            defined
        | _ ->
            Ast_iterator.default_iterator.structure_item it item;
            defined)
      [] items
  in
  structure items

(* Every .ml is walked once; a unit that another names first is walked
   then, so its modules are known where it is opened. *)
let () =
  walk_ml :=
    fun file ->
      match Hashtbl.find_opt walked file with
      | Some mods -> mods
      | None ->
          Hashtbl.replace walked file [];
          let scope = Hashtbl.find scopes (Filename.dirname file) in
          let mods = walk file scope (parse file Parse.implementation) in
          Hashtbl.replace walked file mods;
          mods

(* --- driver ------------------------------------------------------ *)

let add_dir ~lib dir =
  let files = sorted_files dir in
  let scope = { units = Hashtbl.create 16 } in
  Hashtbl.replace scopes dir scope;
  let units = List.sort_uniq compare (List.map unit_name (List.filter is_source files)) in
  List.iter
    (fun u ->
      let base = Filename.concat dir (String.uncapitalize_ascii u) in
      let mli = base ^ ".mli" in
      if lib && Sys.file_exists mli then begin
        let items = parse mli Parse.interface in
        let s = { file = mli; path = []; items; scope; param = None } in
        sigs := s :: !sigs;
        Hashtbl.replace scope.units u (Lazy.from_val (Sig s))
      end
      else Hashtbl.replace scope.units u (lazy (Str (!walk_ml (base ^ ".ml")))))
    units;
  (if lib then
     match library_name dir with
     | Some w ->
         Hashtbl.replace wrappers w
           (match Hashtbl.find_opt scope.units w with
           | Some m -> m
           | None -> lazy (Wrapper scope))
     | None -> ());
  List.filter (has_ext ".ml") files

let rec lib_dirs dir =
  let files = sorted_files dir in
  let subs =
    List.filter (fun f -> Sys.is_directory f && (Filename.basename f).[0] <> '.') files
  in
  (if List.exists is_source files then [ dir ] else [])
  @ List.concat_map lib_dirs subs

let () =
  let expected = ref None and dirs = ref [] in
  Arg.parse
    [ ("-expected", Arg.String (fun f -> expected := Some f),
       "FILE listed findings and their reasons") ]
    (fun d -> dirs := !dirs @ [ d ])
    "exports_scan [-expected FILE] LIBDIR [DIR ...]";
  match !dirs with
  | [] -> prerr_endline "exports_scan: no LIBDIR"; exit 2
  | libdir :: progs ->
      let mls =
        List.concat_map (add_dir ~lib:true) (lib_dirs libdir)
        @ List.concat_map (add_dir ~lib:false) progs
      in
      List.iter collect !sigs;
      List.iter (fun f -> ignore (!walk_ml f)) mls;
      let listed =
        match !expected with
        | None -> []
        | Some f -> String.split_on_char '\n' (read_file f)
      in
      let line finding =
        let prefix = finding ^ " " in
        match List.find_opt (String.starts_with ~prefix) listed with
        | Some l -> l
        | None -> finding
      in
      Hashtbl.fold
        (fun _ e acc ->
          if not e.called then Printf.sprintf "%s %s:" e.mli e.key :: acc
          else
            List.filter_map
              (fun l ->
                if List.mem l e.passed then None
                else Some (Printf.sprintf "%s %s ?%s:" e.mli e.key l))
              e.labels
            @ acc)
        entries []
      |> List.map line |> List.sort compare |> List.iter print_endline

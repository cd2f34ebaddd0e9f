type outcome =
  | Continue
  | Set_route of Env.port list
  | Deliver_local
  | Respond of Dip_bitbuf.Bitbuf.t
  | Silent
  | Abort of string

type ctx = Env.ctx = {
  env : Env.t;
  mutable view : Packet.view;
  mutable ingress : Env.port;
  mutable now : float;
  scratch : scratch;
  budget : Guard.budget;
}

and scratch = Env.scratch = {
  mutable opt_key : Dip_opt.Protocol.key option;
  mutable emit : Dip_netsim.Sim.action list;
}

type impl = Fn.t -> Dip_bitbuf.Field.t -> ctx -> outcome

(* ------------------------------------------------------------------ *)
(* Declared transfer functions (abstract semantics).                   *)
(* ------------------------------------------------------------------ *)

type span = { s_off : int; s_len : int }

let whole = { s_off = 0; s_len = -1 }

type written_kind = W_step | W_node | W_data

type transfer = {
  t_reads : span list;
  t_reads_region : bool;
  t_writes : (span * written_kind) list;
  t_consumes : string list;
  t_produces : string list;
  t_match : bool;
  t_deliver : bool;
}

let pure = {
  t_reads = [ whole ];
  t_reads_region = false;
  t_writes = [];
  t_consumes = [];
  t_produces = [];
  t_match = false;
  t_deliver = false;
}

(* One row per operation key: the abstract effect of running the FN on
   its target slice, the locations region and the per-packet scratch.
   The Dip_analysis abstract interpreter executes these rows instead of
   the real implementations, so a new side effect in Ops must be
   declared here or the analyzer will certify unsound programs. *)
let transfer = function
  | Opkey.F_32_match | Opkey.F_128_match ->
      { pure with t_match = true; t_deliver = true }
  | Opkey.F_source -> pure
  | Opkey.F_fib | Opkey.F_pit -> { pure with t_match = true }
  | Opkey.F_parm -> { pure with t_produces = [ "opt_key" ] }
  | Opkey.F_mac | Opkey.F_mark ->
      { pure with
        t_writes = [ (whole, W_data) ];
        t_consumes = [ "opt_key" ] }
  | Opkey.F_ver -> { pure with t_deliver = true }
  | Opkey.F_dag ->
      (* rewrites only the XIA next-pointer byte of its own DAG *)
      { pure with t_writes = [ ({ s_off = 0; s_len = 8 }, W_step) ];
        t_match = true }
  | Opkey.F_intent -> { pure with t_match = true; t_deliver = true }
  | Opkey.F_pass -> { pure with t_reads_region = true }
  | Opkey.F_cc | Opkey.F_tel ->
      { pure with t_writes = [ (whole, W_node) ] }
  | Opkey.F_hvf -> { pure with t_writes = [ (whole, W_data) ] }
  | Opkey.F_cust ->
      (* flips only the in-custody bit of the leading tag byte; the
         bundle id is read-only *)
      { pure with t_writes = [ ({ s_off = 0; s_len = 8 }, W_node) ] }

let resolve_span ~(field : Dip_bitbuf.Field.t) ~region_bits s =
  let off = field.Dip_bitbuf.Field.off_bits + s.s_off in
  let len =
    if s.s_len < 0 then field.Dip_bitbuf.Field.len_bits - s.s_off
    else s.s_len
  in
  let len = min len (field.Dip_bitbuf.Field.len_bits - s.s_off) in
  let len = min len (region_bits - off) in
  if len <= 0 || off < 0 then None
  else Some (Dip_bitbuf.Field.v ~off_bits:off ~len_bits:len)

(* Dense by key: a lookup is one array load. [generation] counts the
   installs and uninstalls, so a program compiled against this
   registry can tell that it changed since. *)
type t = { impls : impl option array; mutable generation : int }

let empty () = { impls = Array.make (Opkey.max_key + 1) None; generation = 0 }

let set t key v =
  t.impls.(Opkey.to_int key) <- v;
  t.generation <- t.generation + 1

let install t key impl = set t key (Some impl)
let uninstall t key = set t key None
let find t key = t.impls.(Opkey.to_int key)
let supports t key = Option.is_some (find t key)
let generation t = t.generation

let supported t =
  List.filter (fun k -> supports t k) Opkey.all

let restrict t keys =
  let r = empty () in
  List.iter
    (fun k -> match find t k with Some impl -> install r k impl | None -> ())
    keys;
  r

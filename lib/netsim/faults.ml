module Prng = Dip_stdext.Prng
module Bitbuf = Dip_bitbuf.Bitbuf

type spec = { drop : float; corrupt : float; duplicate : float; jitter : float }

let check_prob name p =
  if not (Float.is_finite p) || p < 0.0 || p > 1.0 then
    invalid_arg (Printf.sprintf "Faults.spec: %s must be in [0,1]" name)

let spec ?(drop = 0.0) ?(corrupt = 0.0) ?(duplicate = 0.0) ?(jitter = 0.0) () =
  check_prob "drop" drop;
  check_prob "corrupt" corrupt;
  check_prob "duplicate" duplicate;
  if not (Float.is_finite jitter) || jitter < 0.0 then
    invalid_arg "Faults.spec: jitter must be non-negative";
  { drop; corrupt; duplicate; jitter }

let silent = { drop = 0.0; corrupt = 0.0; duplicate = 0.0; jitter = 0.0 }

type kind = Link_down | Drop | Corrupt | Reorder | Duplicate | Node_crash

(* In [kind_name] order, so {!counts} comes out sorted. *)
let kinds = [| Corrupt; Drop; Duplicate; Link_down; Node_crash; Reorder |]

let index = function
  | Corrupt -> 0 | Drop -> 1 | Duplicate -> 2 | Link_down -> 3
  | Node_crash -> 4 | Reorder -> 5

let kind_name = function
  | Link_down -> "link-down" | Drop -> "drop" | Corrupt -> "corrupt"
  | Reorder -> "reorder" | Duplicate -> "duplicate" | Node_crash -> "node-crash"

(* Each kind's one name, by [index]: its flight instant (a0 = node,
   a1 = port) and its counter in the simulator's registry. *)
let names = Array.map (fun k -> "sim.fault." ^ kind_name k) kinds
let flight_ids = Array.map (fun n -> Dip_obs.Flight.register n) names

(* Crash bookkeeping: overlapping and nested windows on one node must
   behave as the union of their intervals. [active] counts windows
   currently covering the node; the true pre-crash handler is saved
   only on the 0→1 transition and restored only on the →0 one, so no
   window can ever capture (and later reinstall) the drop handler
   itself. [gen] stamps each crash episode: an end-timer from an
   episode that has already fully restored must not decrement a later
   episode's count. *)
type crash = {
  mutable active : int;
  mutable gen : int;
  mutable saved : Sim.handler option;
}

(* What the layer knows about one directed egress. *)
type link = {
  (* Down windows, unordered; the hook scans them (links have few
     windows). *)
  mutable down : (float * float) list;
  (* Link-up subscribers, newest first, read when a down window
     actually ends (so registration order doesn't matter). *)
  mutable up_subs : (float -> unit) list;
}

(* The state of every egress nothing was configured on; never
   written. *)
let unset = { down = []; up_subs = [] }

type t = {
  sim : Sim.t;
  rng : Prng.t;
  mutable default : spec;
  (* By node, then port: a transmit finds its egress with two array
     reads, no hashing. Unconfigured slots hold [unset]. *)
  mutable links : link array array;
  crashes : (Sim.node_id, crash) Hashtbl.t;
  counters : Dip_obs.Metrics.counter array; (* [names], by [index] *)
}

let record t kind ~node ~port =
  let i = index kind in
  Dip_obs.Metrics.Counter.incr t.counters.(i);
  match Sim.flight t.sim with
  | None -> ()
  | Some r -> Dip_obs.Flight.record r flight_ids.(i) node port 0

let find t (node, port) =
  if node >= Array.length t.links || port >= Array.length t.links.(node) then unset
  else t.links.(node).(port)

let grow a i fill =
  if i < Array.length a then a
  else Array.append a (Array.make (i + 1 - Array.length a) fill)

(* [key]'s own record, made on first use. *)
let link t ((node, port) as key) =
  if node < 0 || port < 0 then invalid_arg "Faults: negative node or port";
  t.links <- grow t.links node [||];
  t.links.(node) <- grow t.links.(node) port unset;
  if find t key == unset then
    t.links.(node).(port) <- { down = []; up_subs = [] };
  find t key

let is_down l now = List.exists (fun (a, b) -> now >= a && now < b) l.down

(* Draws happen in a fixed order (drop, corrupt, jitter, duplicate,
   duplicate-jitter) and only for enabled fault kinds, so the stream
   consumption — hence the whole schedule — is a deterministic
   function of (seed, spec, packet sequence). *)
let hook t _sim ~from packet =
  let node, port = from in
  let l = find t from in
  if is_down l (Sim.now t.sim) then begin
    record t Link_down ~node ~port;
    []
  end
  else begin
    let s = t.default in
    if s.drop > 0.0 && Prng.float t.rng 1.0 < s.drop then begin
      record t Drop ~node ~port;
      []
    end
    else begin
      let packet =
        if s.corrupt > 0.0 && Prng.float t.rng 1.0 < s.corrupt then begin
          (* Corrupt a copy: the sender may retransmit from the same
             buffer, and in-flight duplicates must not share damage. *)
          let p = Bitbuf.copy packet in
          let i = Prng.int t.rng (max 1 (Bitbuf.length p)) in
          if Bitbuf.length p > 0 then
            Bitbuf.set_uint8 p i
              (Bitbuf.get_uint8 p i lxor Prng.int_in t.rng 1 255);
          record t Corrupt ~node ~port;
          p
        end
        else packet
      in
      let draw_jitter () =
        if s.jitter > 0.0 then begin
          let d = Prng.float t.rng s.jitter in
          record t Reorder ~node ~port;
          d
        end
        else 0.0
      in
      let first = { Sim.packet; extra_delay = draw_jitter () } in
      if s.duplicate > 0.0 && Prng.float t.rng 1.0 < s.duplicate then begin
        record t Duplicate ~node ~port;
        [
          first;
          { Sim.packet = Bitbuf.copy packet; extra_delay = draw_jitter () };
        ]
      end
      else [ first ]
    end
  end

let attach ~seed sim =
  let t =
    {
      sim;
      rng = Prng.create seed;
      default = silent;
      links = [||];
      crashes = Hashtbl.create 4;
      counters =
        Array.map
          (Dip_obs.Metrics.counter (Sim.counters sim)
             ~help:"injected simulator faults, by kind")
          names;
    }
  in
  Sim.set_egress_hook sim (hook t);
  t

let all_links t s = t.default <- s

let add_window t key w =
  let l = link t key in
  l.down <- w :: l.down

let on_link_up t key f =
  let l = link t key in
  l.up_subs <- f :: l.up_subs

let link_down t (node, port) ~from_ ~until =
  if until <= from_ then invalid_arg "Faults.link_down: empty window";
  match Sim.neighbor t.sim node port with
  | None -> invalid_arg "Faults.link_down: unwired port"
  | Some peer ->
      add_window t (node, port) (from_, until);
      add_window t peer (from_, until);
      (* Notify subscribers when this window ends — unless another
         window still covers the endpoint, in which case that
         window's own end will fire. *)
      Sim.schedule t.sim ~at:until (fun sim ->
          let now = Sim.now sim in
          List.iter
            (fun key ->
              let l = find t key in
              if not (is_down l now) then
                List.iter (fun f -> f now) (List.rev l.up_subs))
            [ (node, port); peer ])

let crash_state t node =
  match Hashtbl.find_opt t.crashes node with
  | Some c -> c
  | None ->
      let c = { active = 0; gen = 0; saved = None } in
      Hashtbl.replace t.crashes node c;
      c

let crash_node t node ~at ~until =
  if until <= at then invalid_arg "Faults.crash_node: empty window";
  Sim.schedule t.sim ~at (fun sim ->
      let c = crash_state t node in
      if c.active = 0 then begin
        c.saved <- Some (Sim.node_handler sim node);
        c.gen <- c.gen + 1;
        Sim.set_handler sim node (fun _ ~now:_ ~ingress:_ _ ->
            record t Node_crash ~node ~port:(-1);
            [ Sim.Drop "node-crash" ])
      end;
      c.active <- c.active + 1;
      let gen = c.gen in
      Sim.schedule sim ~at:until (fun sim ->
          if c.gen = gen then begin
            c.active <- c.active - 1;
            if c.active = 0 then begin
              (match c.saved with
              | Some h -> Sim.set_handler sim node h
              | None -> ());
              c.saved <- None
            end
          end))

let counts t =
  Array.to_list kinds
  |> List.filter_map (fun k ->
         match Dip_obs.Metrics.Counter.get t.counters.(index k) with
         | 0 -> None
         | n -> Some (kind_name k, n))

module M = Dip_obs.Metrics
module F = Dip_obs.Flight

let default_sample_every = 16

(* Flight-recorder event types (registered once, process-wide). Both
   spans ride the sampled path — begin_packet already decides which
   packets pay for clock reads, so arming a flight ring adds no
   unsampled per-packet work. *)
let ev_process = F.register ~kind:F.Span "engine.process"
let ev_op = F.register ~kind:F.Span "engine.op"

type t = {
  (* Dense per-opkey handle arrays, indexed by Opkey.to_int. Slot 0 is
     unused (keys start at 1) but keeping it avoids an offset on the
     hot path. *)
  op_run : M.counter array;
  op_skip : M.counter array;
  op_error : M.counter array;
  op_nanos : M.counter array;
  latency : M.histogram;
  sample_every : int;
  mutable tick : int;
  flight : F.ring option;
}

let create ?(sample_every = default_sample_every) ?flight m =
  if sample_every < 1 then invalid_arg "Obs.create: sample_every must be >= 1";
  let n = Opkey.max_key + 1 in
  let per_op suffix help =
    let reg k =
      M.counter
        ~help:(help ^ Opkey.description k)
        m
        (Printf.sprintf "engine.op.%s.%s" (Opkey.name k) suffix)
    in
    (* Slot 0 is never read (keys start at 1); fill it with the first
       real handle rather than registering a spurious metric. *)
    let a = Array.make n (reg (List.hd Opkey.all)) in
    List.iter (fun k -> a.(Opkey.to_int k) <- reg k) Opkey.all;
    a
  in
  {
    op_run = per_op "run" "executions of ";
    op_skip = per_op "skip" "tag/deployment skips of ";
    op_error = per_op "error" "aborts raised by ";
    op_nanos = per_op "ns" "sampled execution nanos of ";
    latency =
      M.histogram ~help:"sampled whole-run latency (ns)" m "engine.process_ns";
    sample_every;
    tick = 0;
    flight;
  }

let begin_packet t =
  let tk = t.tick + 1 in
  if tk >= t.sample_every then begin
    t.tick <- 0;
    true
  end
  else begin
    t.tick <- tk;
    false
  end

let op_run t k = M.Counter.incr t.op_run.(Opkey.to_int k)
let op_skip t k = M.Counter.incr t.op_skip.(Opkey.to_int k)
let op_error t k = M.Counter.incr t.op_error.(Opkey.to_int k)
let op_ns t k ns =
  M.Counter.incr ~by:ns t.op_nanos.(Opkey.to_int k);
  match t.flight with
  | None -> ()
  | Some r -> F.record r ev_op ns (Opkey.to_int k) 0

let process_ns t ns cls =
  M.Histogram.observe t.latency ns;
  match t.flight with
  | None -> ()
  | Some r -> F.record r ev_process ns cls 0

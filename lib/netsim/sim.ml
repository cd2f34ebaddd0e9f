type node_id = int
type port = int

type action =
  | Forward of port * Dip_bitbuf.Bitbuf.t
  | Consume
  | Drop of string

type egress = { packet : Dip_bitbuf.Bitbuf.t; extra_delay : float }

type event =
  | Arrival of {
      mutable node : node_id;
      mutable port : port;
      mutable packet : Dip_bitbuf.Bitbuf.t;
    }
      (* recycled through [t.spare] once popped: a transmit reuses a
         spent arrival instead of allocating one *)
  | Timer of (t -> unit)

and wire = { mutable busy_until : float }

and handler = t -> now:float -> ingress:port -> Dip_bitbuf.Bitbuf.t -> action list

(* [ports.(p)] is the egress end of the link wired to port [p]; the
   array grows at [connect] and a port past its end is unwired. *)
and node = {
  name : string;
  mutable handler : handler;
  counts : tally;
  mutable ports : link_end option array;
}

(* The rx/tx/consumed/drop handles of one node, registered in the
   simulator's registry at [add_node]. Drop reasons are interned on
   first use. *)
and tally = {
  rx : Dip_obs.Metrics.counter;
  tx : Dip_obs.Metrics.counter;
  consumed : Dip_obs.Metrics.counter;
  drops : Dip_obs.Metrics.family;
}

and link_end = {
  from : node_id * port;
  latency : float;
  bandwidth : float;
  capacity : int;
  peer : node_id * port;
  (* Egress serialization state for this direction: when the wire
     frees, in a float-only record so the per-transmit store is
     unboxed. *)
  wire : wire;
  (* This direction's pending departures, oldest first: a ring of
     [queued] (time, seq) keys from [dhead], power-of-two sized. The
     seq is reserved from the event queue's counter at transmit, so a
     key orders against events exactly as a departure event pushed
     then would. A departure is not an event: it is retired when a
     reader of [queued] runs at a later key (see [retire]). *)
  mutable dtimes : float array;
  mutable dseqs : int array;
  mutable dhead : int;
  mutable queued : int;
}

and t = {
  mutable nodes : node array;
  mutable nnodes : int;
  queue : event Event_queue.t;
  stats : Dip_obs.Metrics.t;
  qdepth : Dip_obs.Metrics.histogram; (* egress depth at each enqueue *)
  mutable clock : float;
  (* The insertion sequence number of the event in progress: with
     [clock], the key before which a link's departures are over. *)
  mutable seq : int;
  mutable consume_hooks : (node_id -> float -> Dip_bitbuf.Bitbuf.t -> unit) list;
  (* Consulted on every transmission over a wired link; lets a fault
     layer drop / mangle / duplicate / delay packets without the
     simulator knowing anything about fault policy. *)
  mutable egress_hook :
    (t -> from:node_id * port -> Dip_bitbuf.Bitbuf.t -> egress list) option;
  (* Flight recorder for simulator-side events (window lifecycle,
     fault injections) — always written from the driving domain. *)
  mutable flight : Dip_obs.Flight.ring option;
  (* Spent arrival events, [spare.(0 .. nspare - 1)], for reuse; at
     most [max_spare], so a drained burst is not kept alive. *)
  spare : event array;
  mutable nspare : int;
}

(* Flight event types for the batched window lifecycle. *)
let ev_window_submit = Dip_obs.Flight.register "sim.window.submit"

let ev_window_apply =
  Dip_obs.Flight.register ~kind:Dip_obs.Flight.Span "sim.window.apply"

(* In steady state every popped arrival is soon taken by the transmit
   it causes, so the pool only has to absorb short-term swings. *)
let max_spare = 64

let create () =
  let stats = Dip_obs.Metrics.create () in
  {
    nodes = [||];
    nnodes = 0;
    queue = Event_queue.create ~filler:(Timer ignore);
    stats;
    qdepth =
      Dip_obs.Metrics.histogram stats "sim.link.queue_depth"
        ~help:"egress queue depth observed at each enqueue";
    clock = 0.0;
    seq = 0;
    consume_hooks = [];
    egress_hook = None;
    flight = None;
    spare = Array.make max_spare (Timer ignore);
    nspare = 0;
  }

let tally m prefix =
  let c suffix help = Dip_obs.Metrics.counter m (prefix ^ suffix) ~help in
  {
    rx = c ".rx" "packet arrivals handled";
    tx = c ".tx" "packets transmitted onto links";
    consumed = c ".consumed" "packets delivered locally";
    drops = Dip_obs.Metrics.family m (prefix ^ ".drop.") ~help:"packets dropped, by reason";
  }

let count_drop node reason =
  Dip_obs.Metrics.Counter.incr (Dip_obs.Metrics.member node.counts.drops reason)

let add_node t ~name handler =
  let node = { name; handler; counts = tally t.stats name; ports = [||] } in
  if t.nnodes = Array.length t.nodes then begin
    let nn = Array.make (max 8 (2 * t.nnodes)) node in
    Array.blit t.nodes 0 nn 0 t.nnodes;
    t.nodes <- nn
  end;
  t.nodes.(t.nnodes) <- node;
  t.nnodes <- t.nnodes + 1;
  t.nnodes - 1

let check_node t id =
  if id < 0 || id >= t.nnodes then invalid_arg "Sim: unknown node id"

let node_name t id =
  check_node t id;
  t.nodes.(id).name

let node_count t = t.nnodes

(* The link end wired to [port] of [node], if any. *)
let link_at node port =
  if port >= 0 && port < Array.length node.ports then node.ports.(port)
  else None

let link t id port =
  if id < 0 || id >= t.nnodes then None else link_at t.nodes.(id) port

let connect t ?(latency = 1e-6) ?(bandwidth = Float.infinity)
    ?(queue_capacity = max_int) (a, pa) (b, pb) =
  check_node t a;
  check_node t b;
  if pa < 0 || pb < 0 then invalid_arg "Sim.connect: negative port";
  if latency < 0.0 then invalid_arg "Sim.connect: negative latency";
  if bandwidth <= 0.0 then invalid_arg "Sim.connect: non-positive bandwidth";
  if queue_capacity < 1 then invalid_arg "Sim.connect: queue capacity";
  let check_free (id, port) =
    if Option.is_some (link_at t.nodes.(id) port) then
      invalid_arg
        (Printf.sprintf "Sim.connect: port %d of %s already wired" port
           t.nodes.(id).name)
  in
  check_free (a, pa);
  check_free (b, pb);
  let wire ((id, port) as from) peer =
    let node = t.nodes.(id) in
    let n = Array.length node.ports in
    if port >= n then begin
      let ports = Array.make (max (port + 1) (2 * n)) None in
      Array.blit node.ports 0 ports 0 n;
      node.ports <- ports
    end;
    node.ports.(port) <-
      Some
        { from; latency; bandwidth; capacity = queue_capacity; peer;
          wire = { busy_until = 0.0 }; dtimes = [||]; dseqs = [||]; dhead = 0;
          queued = 0 }
  in
  wire (a, pa) (b, pb);
  wire (b, pb) (a, pa)

(* The oldest departure is over: its queue slot frees. *)
let drop_departure l =
  l.dhead <- (l.dhead + 1) land (Array.length l.dtimes - 1);
  l.queued <- l.queued - 1

(* Free the queue slots of the departures ordered before the event in
   progress, key [(t.clock, t.seq)] — those an event-per-departure
   loop would have popped by now. A departure at the current instant
   keeps its slot for events queued before its transmit. *)
let retire t l =
  let fin = ref false in
  while (not !fin) && l.queued > 0 do
    let d = l.dtimes.(l.dhead) in
    if d < t.clock || (d = t.clock && l.dseqs.(l.dhead) < t.seq) then
      drop_departure l
    else fin := true
  done

(* Called when the ring is full: double it, oldest entry first. *)
let grow_departures l =
  let n = Array.length l.dtimes in
  let ncap = max 8 (2 * n) in
  let times = Array.make ncap 0.0 and seqs = Array.make ncap 0 in
  for k = 0 to l.queued - 1 do
    let j = (l.dhead + k) land (n - 1) in
    times.(k) <- l.dtimes.(j);
    seqs.(k) <- l.dseqs.(j)
  done;
  l.dtimes <- times;
  l.dseqs <- seqs;
  l.dhead <- 0

let queue_depth t id port =
  match link t id port with
  | Some l ->
      retire t l;
      l.queued
  | None -> 0

let neighbor t id port =
  match link t id port with Some l -> Some l.peer | None -> None

let no_packet = Dip_bitbuf.Bitbuf.create 0

let arrival t node port packet =
  if t.nspare = 0 then Arrival { node; port; packet }
  else begin
    t.nspare <- t.nspare - 1;
    let ev = t.spare.(t.nspare) in
    (match ev with
    | Arrival a ->
        a.node <- node;
        a.port <- port;
        a.packet <- packet
    | Timer _ -> assert false);
    ev
  end

(* Return a popped arrival to the pool, holding no packet. *)
let recycle t ev =
  match ev with
  | Arrival a when t.nspare < max_spare ->
      a.packet <- no_packet;
      t.spare.(t.nspare) <- ev;
      t.nspare <- t.nspare + 1
  | Arrival _ | Timer _ -> ()

(* An event queued before the current instant would run after events
   later than it and set the clock back. *)
let push_event t fn ~at ev =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.%s: time %g is before the current time %g" fn at
         t.clock);
  Event_queue.push t.queue ~time:at ev

let inject t ~at ~node ~port packet =
  check_node t node;
  push_event t "inject" ~at (arrival t node port packet)

let schedule t ~at f = push_event t "schedule" ~at (Timer f)

let now t = t.clock
let counters t = t.stats
let on_consume t f = t.consume_hooks <- f :: t.consume_hooks
let set_egress_hook t hook = t.egress_hook <- Some hook
let clear_egress_hook t = t.egress_hook <- None
let set_flight t r = t.flight <- r
let flight t = t.flight

let set_handler t id handler =
  check_node t id;
  t.nodes.(id).handler <- handler

let node_handler t id =
  check_node t id;
  t.nodes.(id).handler

let transmit_on t node l ~extra_delay packet =
  retire t l;
  if l.queued >= l.capacity then count_drop node "queue-overflow"
  else begin
    Dip_obs.Metrics.Counter.incr node.counts.tx;
    let size = float_of_int (Dip_bitbuf.Bitbuf.length packet) in
    let dst, dport = l.peer in
    (* Serialize behind whatever is already on the wire. An
       infinite-bandwidth link serializes in zero time but still
       occupies a queue slot until its departure instant, so the
       capacity check above binds on both kinds of link. *)
    let tx_time =
      if Float.is_finite l.bandwidth then size /. l.bandwidth else 0.0
    in
    let start = Float.max t.clock l.wire.busy_until in
    let departure = start +. tx_time in
    l.wire.busy_until <- departure;
    if l.queued = Array.length l.dtimes then grow_departures l;
    let i = (l.dhead + l.queued) land (Array.length l.dtimes - 1) in
    l.dtimes.(i) <- departure;
    l.dseqs.(i) <- Event_queue.reserve_seq t.queue;
    l.queued <- l.queued + 1;
    Dip_obs.Metrics.Histogram.observe t.qdepth l.queued;
    (* [extra_delay] models fault-layer jitter: it delays propagation
       of this one packet without holding the egress queue slot, so a
       delayed packet can be overtaken (reordering). *)
    let delay = Float.max 0.0 extra_delay in
    Event_queue.push t.queue
      ~time:(departure +. l.latency +. delay)
      (arrival t dst dport packet)
  end

let transmit t node port packet =
  match link_at node port with
  | None -> count_drop node "unwired-port"
  | Some l -> (
      (* The hook runs only for wired ports: an unwired-port drop is a
         topology bug, not an injected fault. *)
      match t.egress_hook with
      | None -> transmit_on t node l ~extra_delay:0.0 packet
      | Some hook ->
          List.iter
            (fun e -> transmit_on t node l ~extra_delay:e.extra_delay e.packet)
            (hook t ~from:l.from packet))

(* One arrival's effects, whoever computed its actions (the node's
   handler inline, or a batch backend): the clock to the arrival
   instant, rx accounting, then the actions. *)
let rec apply_actions t id node packet = function
  | [] -> ()
  | action :: rest ->
      (match action with
      | Forward (out, pkt) -> transmit t node out pkt
      | Consume ->
          Dip_obs.Metrics.Counter.incr node.counts.consumed;
          List.iter (fun f -> f id t.clock packet) t.consume_hooks
      | Drop reason -> count_drop node reason);
      apply_actions t id node packet rest

let apply_arrival t ~time id packet actions =
  t.clock <- time;
  let node = t.nodes.(id) in
  Dip_obs.Metrics.Counter.incr node.counts.rx;
  apply_actions t id node packet actions

(* The run returns: bring every link to where an event-per-departure
   loop would have left it. Drained, every departure has been passed
   by its own arrival, so all are retired, and the rings and the event
   queue drop their storage. Stopped at [until], the departures at or
   before [until] are retired, and the clock moves to the last of them
   when it is later than the last event: that loop would have popped
   it last. *)
let settle t ~until =
  let drained = Event_queue.is_empty t.queue in
  Event_queue.release t.queue;
  for id = 0 to t.nnodes - 1 do
    Array.iter
      (function
        | None -> ()
        | Some l when drained ->
            l.dtimes <- [||];
            l.dseqs <- [||];
            l.dhead <- 0;
            l.queued <- 0
        | Some l ->
            while l.queued > 0 && l.dtimes.(l.dhead) <= until do
              if l.dtimes.(l.dhead) > t.clock then t.clock <- l.dtimes.(l.dhead);
              drop_departure l
            done)
      t.nodes.(id).ports
  done

type batch_item = {
  b_node : node_id;
  b_port : port;
  b_time : float;
  b_packet : Dip_bitbuf.Bitbuf.t;
}

(* The event loop — {!run} is this loop with nothing batchable.
   Consecutive arrivals at [batchable] nodes within [window] of the
   first collect into one pending batch. When the window closes it is
   handed to [exec] and its results applied, in arrival order on the
   calling domain, before the loop pops another event — so everything
   a handler could observe sequentially is a function of the workload
   and [window] only, never of how [exec] scheduled the work. *)
let run_batched ?(until = Float.infinity) ?(window = 0.0) t ~batchable ~exec =
  if window < 0.0 then invalid_arg "Sim.run_batched: negative window";
  (* The pending batch, newest first, plus the time of its oldest
     member (the window anchor). [seqs.(i)] is the insertion sequence
     number of the batch's [i]th arrival: applied, it is the event in
     progress that the links' departures are retired against. *)
  let pending = ref [] in
  let npending = ref 0 in
  let seqs = ref [||] in
  let anchor = ref 0.0 in
  (* Window sequence number, for correlating the submit instant with
     the apply span on the flight timeline. *)
  let wseq = ref 0 in
  let flush () =
    let arr = Array.make !npending (List.hd !pending) in
    List.iteri (fun i item -> arr.(!npending - 1 - i) <- item) !pending;
    pending := [];
    npending := 0;
    let seq = !wseq in
    incr wseq;
    (match t.flight with
    | None -> ()
    | Some r -> Dip_obs.Flight.record r ev_window_submit (Array.length arr) seq 0);
    let results = exec arr in
    if Array.length results <> Array.length arr then
      invalid_arg "Sim.run_batched: exec returned a mismatched array";
    let t0 =
      match t.flight with None -> 0 | Some _ -> Dip_obs.Flight.now ()
    in
    Array.iteri
      (fun i item ->
        t.seq <- !seqs.(i);
        apply_arrival t ~time:item.b_time item.b_node item.b_packet
          results.(i))
      arr;
    match t.flight with
    | None -> ()
    | Some r ->
        Dip_obs.Flight.record r ev_window_apply
          (Dip_obs.Flight.now () - t0)
          (Array.length arr) seq
  in
  let q = t.queue in
  let rec loop () =
    if Event_queue.is_empty q then close ()
    else
      (* The head's time is boxed once, by [min_time], and the clock
         keeps its old box while the instant does not change: the
         clock, the handler's [~now], any delivery record and any
         event scheduled at [now t] share one box per instant. *)
      let time = Event_queue.min_time q in
      if not (time <= until) then close ()
      else
        match Event_queue.min_payload q with
        | Arrival a as ev
          when batchable a.node && (!npending = 0 || time <= !anchor +. window) ->
            if !npending = Array.length !seqs then begin
              let grown = Array.make (max 8 (2 * !npending)) 0 in
              Array.blit !seqs 0 grown 0 !npending;
              seqs := grown
            end;
            !seqs.(!npending) <- Event_queue.min_seq q;
            Event_queue.drop_min q;
            if !npending = 0 then anchor := time;
            pending :=
              { b_node = a.node; b_port = a.port; b_time = time; b_packet = a.packet }
              :: !pending;
            recycle t ev;
            incr npending;
            loop ()
        | _ when !npending > 0 ->
            (* The window closes at a batchable arrival beyond its
               span, and before a timer or non-batchable arrival: its
               handler may read state the batch writes, and the
               batch's effects may precede its time. *)
            flush ();
            loop ()
        | ev ->
            t.seq <- Event_queue.min_seq q;
            Event_queue.drop_min q;
            if time <> t.clock then t.clock <- time;
            (match ev with
            | Arrival a ->
                let id = a.node and port = a.port and packet = a.packet in
                recycle t ev;
                apply_arrival t ~time:t.clock id packet
                  (t.nodes.(id).handler t ~now:t.clock ~ingress:port packet)
            | Timer f -> f t);
            loop ()
  (* The window also closes at the end of the run: the tail's effects
     may schedule events at or before [until]. *)
  and close () =
    if !npending > 0 then begin
      flush ();
      loop ()
    end
    else settle t ~until
  in
  loop ()

let run ?until t =
  run_batched ?until t ~batchable:(fun _ -> false) ~exec:(fun _ -> assert false)

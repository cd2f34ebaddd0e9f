type node_id = int
type port = int

type action =
  | Forward of port * Dip_bitbuf.Bitbuf.t
  | Consume
  | Drop of string

type event =
  | Arrival of {
      mutable node : node_id;
      mutable port : port;
      mutable packet : Dip_bitbuf.Bitbuf.t;
    }
      (* an injection, or a packet the egress hook delayed; recycled
         through [t.spare] once popped, for the next one to reuse *)
  | Timer of (t -> unit)

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
  (* This direction's transmissions, oldest first, from transmit until
     both their departure and their arrival are over: a ring,
     power-of-two sized, of departure keys — the time at [keys.(2i)]
     and the seq at [keys.(2i + 1)], as a float (exact below 2^53) —
     and the packets in flight. Positions count up from 0 and index
     the ring modulo its size; the ring holds
     [min ahead dhead .. tail - 1].

     [dhead .. tail - 1] are the departures not yet retired: the
     queue. A departure's seq is reserved from the event queue's
     counter at transmit, so its key orders against events exactly as
     a departure event pushed then would. A departure is not an event:
     it is retired when a reader of the queue runs at a later key (see
     [retire]).

     [ahead] is the oldest entry whose packet has not arrived, or
     [tail]. An arrival's key is its departure's time plus [latency]
     and the seq after its departure's, reserved with it; departures
     are in key order and the latency is constant, so the link is one
     sorted stream of arrivals (see [busy]). A packet the egress hook
     delays may be overtaken: its arrival is an event, and its entry
     holds [no_packet] and only a departure. *)
  mutable keys : float array;
  mutable packets : Dip_bitbuf.Bitbuf.t array;
  mutable ahead : int;
  mutable dhead : int;
  mutable tail : int;
}

and t = {
  mutable nodes : node array;
  mutable nnodes : int;
  queue : event Event_queue.t;
  (* The time of the queue's head while the queue is not empty, in
     the box [Event_queue.min_time] returned (or the pushed time that
     became the head): the loop compares it with the busy links' head
     without boxing it again. *)
  mutable qtime : float;
  (* The links with a packet in flight ([ahead < tail]), ordered by the
     key of that packet's arrival, each link by its slot in
     [busy_links]. A vacant slot may still name a link: links live as
     long as the simulator. *)
  busy : Event_queue.Keys.t;
  mutable busy_links : link_end array;
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
    (t -> from:node_id * port -> Dip_bitbuf.Bitbuf.t -> unit) option;
  (* While the hook runs, the link it was consulted for: the same
     [Some] block as the node's [ports] slot, so setting it allocates
     nothing. [emit] transmits on it. *)
  mutable emitting : link_end option;
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

(* Arrival events are injections and delayed packets, which a run
   pops as later ones are queued (a handler's inject or replay, a
   faulty link's jitter), so the pool only has to absorb short-term
   swings. *)
let max_spare = 64

let no_packet = Dip_bitbuf.Bitbuf.create 0

let create () =
  let stats = Dip_obs.Metrics.create () in
  {
    nodes = [||];
    nnodes = 0;
    queue = Event_queue.create ~filler:(Timer ignore);
    qtime = 0.0;
    busy = Event_queue.Keys.create ();
    busy_links = [||];
    stats;
    qdepth =
      Dip_obs.Metrics.histogram stats "sim.link.queue_depth"
        ~help:"egress queue depth observed at each enqueue";
    clock = 0.0;
    seq = 0;
    consume_hooks = [];
    egress_hook = None;
    emitting = None;
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
  if not (latency >= 0.0 && Float.is_finite latency) then
    invalid_arg "Sim.connect: latency must be finite and non-negative";
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
        { from; latency; bandwidth; capacity = queue_capacity; peer; keys = [||];
          packets = [||]; ahead = 0; dhead = 0; tail = 0 }
  in
  wire (a, pa) (b, pb);
  wire (b, pb) (a, pa)

(* --- The busy links' heap --- *)

module Keys = Event_queue.Keys

(* Write the key of [l]'s next arrival into position [i], straight
   from its ring, so the time is never boxed on the way, whether or
   not ocamlopt inlines the heap's functions here (the release build
   does, a [--profile dev] build does not). *)
let busy_key (b : Keys.t) i l =
  let j = l.ahead land (Array.length l.packets - 1) in
  b.times.(i) <- l.keys.(2 * j) +. l.latency;
  b.seqs.(i) <- int_of_float l.keys.((2 * j) + 1) + 1

(* [l] has a packet in flight and is not in the heap: add it. *)
let busy_push t l =
  let b = t.busy in
  if Keys.ensure b then t.busy_links <- Keys.fit b t.busy_links l;
  busy_key b b.len l;
  t.busy_links.(Keys.add b) <- l

(* The root link's arrival was taken: re-key it by its next one, or
   drop it from the heap when it has none. *)
let busy_next t l =
  if l.ahead < l.tail then begin
    busy_key t.busy 0 l;
    Keys.sift_down t.busy ~from:0
  end
  else Keys.remove_min t.busy

(* --- A link's ring --- *)

let ring_start l = if l.ahead < l.dhead then l.ahead else l.dhead

(* Free the queue slots of the departures ordered before the event in
   progress, key [(t.clock, t.seq)] — those an event-per-departure
   loop would have popped by now. A departure at the current instant
   keeps its slot for events queued before its transmit. *)
let retire t l =
  let mask = Array.length l.packets - 1 and seq = Float.of_int t.seq in
  let fin = ref false in
  while (not !fin) && l.dhead < l.tail do
    let j = 2 * (l.dhead land mask) in
    let d = l.keys.(j) in
    if d < t.clock || (d = t.clock && l.keys.(j + 1) < seq) then
      l.dhead <- l.dhead + 1
    else fin := true
  done

(* Called when the ring is full: double it, oldest entry first. *)
let grow_ring l =
  let n = Array.length l.packets and start = ring_start l in
  let ncap = max 8 (2 * n) in
  let keys = Array.make (2 * ncap) 0.0 and packets = Array.make ncap no_packet in
  for k = 0 to l.tail - start - 1 do
    let j = (start + k) land (n - 1) in
    keys.(2 * k) <- l.keys.(2 * j);
    keys.((2 * k) + 1) <- l.keys.((2 * j) + 1);
    packets.(k) <- l.packets.(j)
  done;
  l.keys <- keys;
  l.packets <- packets;
  l.ahead <- l.ahead - start;
  l.dhead <- l.dhead - start;
  l.tail <- l.tail - start

(* Take the packet at [l]'s arrival head, the busy heap's root, and
   re-key the root. Its departure is left to [retire]: a batch takes
   its arrivals before it applies the earlier ones, which must still
   see that departure's slot taken if it is later than them. *)
let take_arrival t l =
  let mask = Array.length l.packets - 1 and k = l.ahead in
  let packet = l.packets.(k land mask) in
  l.packets.(k land mask) <- no_packet;
  let k = ref (k + 1) in
  while !k < l.tail && l.packets.(!k land mask) == no_packet do
    incr k
  done;
  l.ahead <- !k;
  busy_next t l;
  packet

let queue_depth t id port =
  match link t id port with
  | Some l ->
      retire t l;
      l.tail - l.dhead
  | None -> 0

let neighbor t id port =
  match link t id port with Some l -> Some l.peer | None -> None

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

(* Every push goes through here, to keep [t.qtime]: a pushed event
   takes the newest seq, so it is the head only if it is earlier than
   the old one. *)
let enqueue t ~at ev =
  Event_queue.push t.queue ~time:at ev;
  if Event_queue.size t.queue = 1 || at < t.qtime then t.qtime <- at

(* An event queued before the current instant would run after events
   later than it and set the clock back. *)
let push_event t fn ~at ev =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.%s: time %g is before the current time %g" fn at
         t.clock);
  enqueue t ~at ev

let inject t ~at ~node ~port packet =
  check_node t node;
  push_event t "inject" ~at (arrival t node port packet)

let schedule t ~at f = push_event t "schedule" ~at (Timer f)

let now t = t.clock
let counters t = t.stats
let on_consume t f = t.consume_hooks <- f :: t.consume_hooks
let set_egress_hook t hook = t.egress_hook <- Some hook
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
  if l.tail - l.dhead >= l.capacity then count_drop node "queue-overflow"
  else begin
    Dip_obs.Metrics.Counter.incr node.counts.tx;
    let size = float_of_int (Dip_bitbuf.Bitbuf.length packet) in
    (* Serialize behind whatever is already on the wire: the ring's
       last departure, if it holds one; an empty ring's departures are
       all over. An infinite-bandwidth link serializes in zero time
       but still occupies a queue slot until its departure instant, so
       the capacity check above binds on both kinds of link. *)
    let tx_time =
      if Float.is_finite l.bandwidth then size /. l.bandwidth else 0.0
    in
    if l.tail - ring_start l = Array.length l.packets then grow_ring l;
    let mask = Array.length l.packets - 1 in
    let start =
      if l.tail > ring_start l then
        Float.max t.clock l.keys.(2 * ((l.tail - 1) land mask))
      else t.clock
    in
    let k = l.tail and j = 2 * (l.tail land mask) in
    l.keys.(j) <- start +. tx_time;
    l.keys.(j + 1) <- Float.of_int (Event_queue.reserve_seq t.queue);
    l.tail <- k + 1;
    Dip_obs.Metrics.Histogram.observe t.qdepth (l.tail - l.dhead);
    (* [extra_delay] models fault-layer jitter: it delays propagation
       of this one packet without holding the egress queue slot, so a
       delayed packet can be overtaken (reordering) and its arrival is
       an event. Otherwise the arrival is the ring's, under the seq
       reserved next, as a push would take it. *)
    let delay = Float.max 0.0 extra_delay in
    if delay = 0.0 then begin
      ignore (Event_queue.reserve_seq t.queue);
      l.packets.(k land mask) <- packet;
      if l.ahead = k then busy_push t l
    end
    else begin
      if l.ahead = k then l.ahead <- k + 1;
      let dst, dport = l.peer in
      enqueue t ~at:(l.keys.(j) +. l.latency +. delay) (arrival t dst dport packet)
    end
  end

let transmit t node port packet =
  match link_at node port with
  | None -> count_drop node "unwired-port"
  | Some l as wired -> (
      (* The hook runs only for wired ports: an unwired-port drop is a
         topology bug, not an injected fault. *)
      match t.egress_hook with
      | None -> transmit_on t node l ~extra_delay:0.0 packet
      | Some hook ->
          t.emitting <- wired;
          hook t ~from:l.from packet;
          t.emitting <- None)

let emit t ~extra_delay packet =
  match t.emitting with
  | None -> invalid_arg "Sim.emit: no egress hook is running"
  | Some l -> transmit_on t t.nodes.(fst l.from) l ~extra_delay packet

(* One arrival's effects, whoever computed its actions (the node's
   handler inline, or a batch backend): the clock to the arrival
   instant unless it is already later, rx accounting, then the
   actions. *)
let rec apply_actions t id node packet = function
  | [] -> ()
  | action :: rest ->
      (match action with
      | Forward (out, pkt) -> transmit t node out pkt
      | Consume ->
          Dip_obs.Metrics.Counter.incr node.counts.consumed;
          consumed t id packet t.consume_hooks
      | Drop reason -> count_drop node reason);
      apply_actions t id node packet rest

(* A loop rather than [List.iter], which would allocate a closure per
   delivery. *)
and consumed t id packet = function
  | [] -> ()
  | f :: rest ->
      f id t.clock packet;
      consumed t id packet rest

let apply_arrival t ~time id packet actions =
  if time > t.clock then t.clock <- time;
  let node = t.nodes.(id) in
  Dip_obs.Metrics.Counter.incr node.counts.rx;
  apply_actions t id node packet actions

(* The run returns: bring every link to where an event-per-hop loop
   would have left it. Drained, every departure has been passed by its
   own arrival, so all are retired, and the rings, the busy heap and
   the event queue drop their storage. Stopped at [until], the
   departures at or before [until] are retired, and the clock moves to
   the last of them when it is later than the last event: that loop
   would have popped it last. *)
let settle t ~until =
  let drained = Event_queue.is_empty t.queue && t.busy.len = 0 in
  Event_queue.release t.queue;
  if drained then begin
    Keys.release t.busy;
    t.busy_links <- [||]
  end;
  for id = 0 to t.nnodes - 1 do
    Array.iter
      (function
        | None -> ()
        | Some l when drained ->
            l.keys <- [||];
            l.packets <- [||];
            l.ahead <- 0;
            l.dhead <- 0;
            l.tail <- 0
        | Some l ->
            let mask = Array.length l.packets - 1 in
            let fin = ref false in
            while (not !fin) && l.dhead < l.tail do
              let d = l.keys.(2 * (l.dhead land mask)) in
              if d <= until then begin
                if d > t.clock then t.clock <- d;
                l.dhead <- l.dhead + 1
              end
              else fin := true
            done)
      t.nodes.(id).ports
  done

type batch_item = {
  b_node : node_id;
  b_port : port;
  b_time : float;
  b_packet : Dip_bitbuf.Bitbuf.t;
}

(* The event loop — {!run} is this loop with nothing batchable. The
   next event is the earlier, by key, of the event queue's head and
   the busy links' head arrival. Consecutive arrivals at [batchable]
   nodes within [window] of the first collect into one pending batch.
   When the window closes it is handed to [exec] and its results
   applied, in arrival order on the calling domain, before the loop
   pops another event — so everything a handler could observe
   sequentially is a function of the workload and [window] only,
   never of how [exec] scheduled the work.

   The clock never decreases: every assignment takes the later time.
   A batch member's effects can fall before a later member's time (a
   window wider than a link's latency), and the loop pops them after
   the window was applied: they run at the clock, the last member's
   time. *)
let run_batched ?(until = Float.infinity) ?(window = 0.0) t ~batchable ~exec =
  if window < 0.0 then invalid_arg "Sim.run_batched: negative window";
  (* The pending batch, newest first, plus the time of its oldest
     member (the window anchor, unboxed in a float array). [seqs.(i)]
     is the insertion sequence number of the batch's [i]th arrival:
     applied, it is the event in progress that the links' departures
     are retired against. *)
  let pending = ref [] in
  let npending = ref 0 in
  let seqs = ref [||] in
  let anchor = [| 0.0 |] in
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
  (* Add an arrival with key [(time, seq)] to the pending batch. *)
  let collect ~node ~port ~time ~seq packet =
    if !npending = Array.length !seqs then begin
      let grown = Array.make (max 8 (2 * !npending)) 0 in
      Array.blit !seqs 0 grown 0 !npending;
      seqs := grown
    end;
    !seqs.(!npending) <- seq;
    if !npending = 0 then anchor.(0) <- time;
    pending := { b_node = node; b_port = port; b_time = time; b_packet = packet } :: !pending;
    incr npending
  in
  let q = t.queue and b = t.busy in
  let rec loop () =
    if
      b.len > 0
      && (Event_queue.is_empty q
         ||
         let lt = b.times.(0) and qt = t.qtime in
         lt < qt || (lt = qt && b.seqs.(0) < Event_queue.min_seq q))
    then link_arrival ()
    else if Event_queue.is_empty q then close ()
    else queued_event ()
  (* The head is a link's arrival: its time stays unboxed until the
     clock or a batch item takes it. *)
  and link_arrival () =
    let time = b.times.(0) in
    if not (time <= until) then close ()
    else
      let l = t.busy_links.(b.slots.(0)) in
      let dst, dport = l.peer in
      if batchable dst && (!npending = 0 || time <= anchor.(0) +. window) then begin
        let seq = b.seqs.(0) in
        collect ~node:dst ~port:dport ~time ~seq (take_arrival t l);
        loop ()
      end
      else if !npending > 0 then begin
        flush ();
        loop ()
      end
      else begin
        t.seq <- b.seqs.(0);
        if time > t.clock then t.clock <- time;
        let packet = take_arrival t l in
        apply_arrival t ~time:t.clock dst packet
          (t.nodes.(dst).handler t ~now:t.clock ~ingress:dport packet);
        loop ()
      end
  (* The head is the queue's: [t.qtime] is its time, boxed once, and
     the clock keeps its old box while the instant does not change:
     the clock, the handler's [~now], any delivery record and any
     event scheduled at [now t] share one box per instant. *)
  and queued_event () =
    let time = t.qtime in
    if not (time <= until) then close ()
    else
      match Event_queue.min_payload q with
      | Arrival a as ev
        when batchable a.node && (!npending = 0 || time <= anchor.(0) +. window) ->
          collect ~node:a.node ~port:a.port ~time ~seq:(Event_queue.min_seq q)
            a.packet;
          pop ();
          recycle t ev;
          loop ()
      | _ when !npending > 0 ->
          (* The window closes at a batchable arrival beyond its span,
             and before a timer or non-batchable arrival: its handler
             may read state the batch writes, and the batch's effects
             may precede its time. *)
          flush ();
          loop ()
      | ev ->
          t.seq <- Event_queue.min_seq q;
          pop ();
          if time > t.clock then t.clock <- time;
          (match ev with
          | Arrival a ->
              let id = a.node and port = a.port and packet = a.packet in
              recycle t ev;
              apply_arrival t ~time:t.clock id packet
                (t.nodes.(id).handler t ~now:t.clock ~ingress:port packet)
          | Timer f -> f t);
          loop ()
  and pop () =
    Event_queue.drop_min q;
    if not (Event_queue.is_empty q) then t.qtime <- Event_queue.min_time q
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

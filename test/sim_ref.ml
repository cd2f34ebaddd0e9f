(* A reference for the simulator's link model: the event loop with one
   explicit departure event and one arrival event per transmission,
   over a sorted list. Dip_netsim.Sim keeps each link's transmissions
   in a FIFO of (time, seq) departure keys instead, retires departures
   when a link's depth is read and pops arrivals from the link's head;
   test_netsim checks the two against each other on random scenarios.

   A scenario is a line of three nodes, 0 -(1:0)- 1 -(1:0)- 2, and a
   fixed forwarding rule: a packet entering on port 0 travels toward
   node 2 and one entering on port 1 toward node 0, where it is
   consumed; node 1 sends an odd-sized eastbound packet twice, so one
   event can transmit twice on the same link. Injections and probes
   are the scenario's; a probe at [t] reads every link end's depth,
   then schedules a second probe at [t] that reads them again — after
   anything the first one's instant transmitted. With [jitter], each
   transmission attempt draws an extra propagation delay from a seeded
   stream, in attempt order (the order an egress hook sees them): a
   delayed packet holds its queue slot only until its departure and
   may be overtaken. *)

type link = {
  latency : float;
  bandwidth : float;  (** bytes per second, [infinity] for none *)
  capacity : int;
}

type scenario = {
  links : link * link;  (** node 0 to node 1, node 1 to node 2 *)
  injects : (float * int * int * int) list;
      (** at, node, ingress port, packet size (≥ 2 bytes) *)
  probes : float list;
  until : float option;  (** a first [run ~until] before draining *)
  jitter : int option;  (** seed of the per-transmission extra delays *)
}

(* The extra delay of each transmission attempt, in attempt order: on
   the quarter-second grid, none for half of them. *)
let delays s =
  match s.jitter with
  | None -> fun () -> 0.0
  | Some seed ->
      let g = Dip_stdext.Prng.create (Int64.of_int seed) in
      fun () ->
        [| 0.0; 0.0; 0.0; 0.0; 0.25; 0.5; 1.0; 1.75 |].(Dip_stdext.Prng.int g 8)

(* The link ends, in the order a probe reads them. *)
let ends = [ (0, 1); (1, 0); (1, 1); (2, 0) ]

let link_of s (node, port) =
  let l01, l12 = s.links in
  match (node, port) with
  | 0, 1 | 1, 0 -> Some l01
  | 1, 1 | 2, 0 -> Some l12
  | _ -> None

let peer (node, port) = if port = 1 then (node + 1, 0) else (node - 1, 1)

(* The ports a packet leaves by, or [] for consumed. *)
let route ~node ~ingress ~size =
  match (node, ingress) with
  | 2, 0 | 0, 1 -> []
  | 1, 0 when size land 1 = 1 -> [ 1; 1 ]
  | _, 0 -> [ 1 ]
  | _ -> [ 0 ]

type outcome = {
  probes : (float * int * int list) list;  (** time, stage, depths *)
  deliveries : (int * float * int) list;  (** node, time, packet id *)
  overflows : int list;  (** per node *)
  at_until : (float * int list) option;  (** clock and depths after [run ~until] *)
  final_clock : float;
}

type wire = {
  l : link;
  dst : int * int;
  mutable busy_until : float;
  mutable queued : int;
}

type event =
  | Arrival of int * int * int * int  (** node, port, id, size *)
  | Depart of wire
  | Probe of int

let run s =
  let wires =
    List.map
      (fun e ->
        (e, { l = Option.get (link_of s e); dst = peer e; busy_until = 0.0; queued = 0 }))
      ends
  in
  let events = ref [] and seq = ref 0 and clock = ref 0.0 in
  let push time ev =
    let key = (time, !seq) in
    incr seq;
    let later (t, q, _) = compare (t, q) key > 0 in
    let before, after = List.partition (fun e -> not (later e)) !events in
    events := before @ ((time, snd key, ev) :: after)
  in
  let probes = ref [] and deliveries = ref [] in
  let overflows = Array.make 3 0 in
  let depths () = List.map (fun (_, w) -> w.queued) wires in
  let delay = delays s in
  let transmit node port id size =
    let w = List.assoc (node, port) wires in
    let extra = delay () in
    if w.queued >= w.l.capacity then overflows.(node) <- overflows.(node) + 1
    else begin
      let tx =
        if Float.is_finite w.l.bandwidth then float_of_int size /. w.l.bandwidth
        else 0.0
      in
      let departure = Float.max !clock w.busy_until +. tx in
      w.busy_until <- departure;
      w.queued <- w.queued + 1;
      push departure (Depart w);
      let dst, dport = w.dst in
      push (departure +. w.l.latency +. extra) (Arrival (dst, dport, id, size))
    end
  in
  List.iteri (fun id (at, node, port, size) -> push at (Arrival (node, port, id, size)))
    s.injects;
  List.iter (fun at -> push at (Probe 1)) s.probes;
  let rec loop until =
    match !events with
    | (time, _, ev) :: rest when time <= until ->
        events := rest;
        clock := time;
        (match ev with
        | Arrival (node, ingress, id, size) -> (
            match route ~node ~ingress ~size with
            | [] -> deliveries := (node, time, id) :: !deliveries
            | ports -> List.iter (fun p -> transmit node p id size) ports)
        | Depart w -> w.queued <- w.queued - 1
        | Probe stage ->
            probes := (time, stage, depths ()) :: !probes;
            if stage = 1 then push time (Probe 2));
        loop until
    | _ -> ()
  in
  let at_until =
    Option.map
      (fun until ->
        loop until;
        (!clock, depths ()))
      s.until
  in
  loop Float.infinity;
  {
    probes = List.rev !probes;
    deliveries = List.rev !deliveries;
    overflows = Array.to_list overflows;
    at_until;
    final_clock = !clock;
  }

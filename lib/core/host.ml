module Reliable = struct
  module Sim = Dip_netsim.Sim
  module Bitbuf = Dip_bitbuf.Bitbuf
  module Prng = Dip_stdext.Prng
  module Crc32 = Dip_stdext.Crc32
  module Ipaddr = Dip_tables.Ipaddr

  (* Wire format: a plain DIP-32 packet (F_32_match + F_source route
     it like any IPv4-style flow) whose locations region carries two
     extra words the network never interprets:

       byte   0..4    destination address   (F_32_match target)
       byte   4..8    source address        (F_source target)
       byte   8..12   sequence number       (big-endian)
       byte  12..16   CRC-32                (big-endian)

     The CRC covers locations[0..12) then the payload — everything
     that must survive the path unchanged. The basic header is
     excluded on purpose: hop limit legitimately mutates in flight. *)

  let data_next_header = 0xFD
  let ack_next_header = 0xFC
  let self_port = 99
  let loc_len = 16

  type config = {
    rto : float;
    backoff : float;
    rto_max : float;
    max_jitter : float;
    max_retries : int;
  }

  let default_config =
    { rto = 0.05; backoff = 2.0; rto_max = Float.infinity; max_jitter = 0.005;
      max_retries = 8 }

  let fns =
    [
      Fn.v ~loc:0 ~len:32 Opkey.F_32_match;
      Fn.v ~loc:32 ~len:32 Opkey.F_source;
    ]

  let crc_of_view (view : Packet.view) =
    let covered = Bitbuf.sub_string view.Packet.buf ~pos:view.Packet.loc_base ~len:12 in
    Crc32.digest ~init:(Crc32.digest covered) (Packet.payload view)

  (* With [custody] the locations grow by the 5-byte Custody region
     (tag + bundle id = seq) and the program gains the ignorable
     F_cust. The CRC still covers only locations[0..12) + payload, so
     custodians flipping the in-custody bit in flight don't break the
     end-to-end integrity check. *)
  let build ?(custody = false) ~next_header ~dst ~src ~seq ~payload () =
    let n = if custody then loc_len + Custody.region_bytes else loc_len in
    let loc = Bytes.create n in
    Bytes.blit_string (Ipaddr.V4.to_wire dst) 0 loc 0 4;
    Bytes.blit_string (Ipaddr.V4.to_wire src) 0 loc 4 4;
    Bytes.set_int32_be loc 8 seq;
    let crc =
      Crc32.digest ~init:(Crc32.digest_sub loc ~pos:0 ~len:12) payload
    in
    Bytes.set_int32_be loc 12 crc;
    let fns =
      if custody then begin
        Custody.set_region loc ~off:loc_len ~flags:Custody.flag_request
          ~bundle:seq;
        fns @ [ Custody.fn_at ~loc:(8 * loc_len) ]
      end
      else fns
    in
    Packet.build ~next_header ~fns ~locations:(Bytes.to_string loc) ~payload ()

  (* A validated reliable-protocol packet. [custody] is the bundle id
     when the source requested custody transfer for this packet. *)
  type frame = {
    f_dst : Ipaddr.V4.t;
    f_src : Ipaddr.V4.t;
    seq : int32;
    custody : int32 option;
  }

  let classify packet =
    match Packet.parse packet with
    | Error e -> `Invalid ("parse: " ^ e)
    | Ok view ->
        let nh = view.Packet.header.Header.next_header in
        if nh = Custody.ack_next_header then begin
          (* A hop-local custody ACK that reached an endpoint: the
             first custodian is taking over from the sender. *)
          if view.Packet.header.Header.fn_loc_len < Custody.region_bytes then
            `Invalid "custody: short ack region"
          else
            `Cust_ack (Custody.read_bundle view.Packet.buf ~base:view.Packet.loc_base)
        end
        else if nh <> data_next_header && nh <> ack_next_header then `Other
        else if view.Packet.header.Header.fn_loc_len < loc_len then
          `Invalid "reliable: short locations region"
        else begin
          let base = view.Packet.loc_base in
          let stored = Bitbuf.get_uint32 view.Packet.buf (base + 12) in
          if not (Int32.equal stored (crc_of_view view)) then `Corrupt
          else
            let custody =
              if
                view.Packet.header.Header.fn_loc_len
                >= loc_len + Custody.region_bytes
                && Custody.read_flags view.Packet.buf ~base:(base + loc_len)
                   land Custody.flag_request
                   <> 0
              then Some (Custody.read_bundle view.Packet.buf ~base:(base + loc_len))
              else None
            in
            let frame =
              {
                f_dst = Ipaddr.V4.of_wire (Bitbuf.sub_string view.Packet.buf ~pos:base ~len:4);
                f_src = Ipaddr.V4.of_wire (Bitbuf.sub_string view.Packet.buf ~pos:(base + 4) ~len:4);
                seq = Bitbuf.get_uint32 view.Packet.buf (base + 8);
                custody;
              }
            in
            if nh = data_next_header then `Data frame else `Ack frame
        end

  type pending = { packet : Bitbuf.t; mutable tries : int }

  type sender_stats = {
    sent : int;  (** unique payloads handed to {!send} *)
    transmissions : int;  (** wire transmissions incl. retransmits *)
    acked : int;
    custodied : int;
    gave_up : int;
    in_flight : int;
  }

  type sender = {
    sim : Sim.t;
    mutable node : Sim.node_id;
    cfg : config;
    cust : bool;
    rng : Prng.t;
    src : Ipaddr.V4.t;
    dst : Ipaddr.V4.t;
    out_port : Sim.port;
    pending : (int32, pending) Hashtbl.t;
    mutable next_seq : int32;
    mutable s_sent : int;
    mutable s_tx : int;
    mutable s_acked : int;
    mutable s_custodied : int;
    mutable s_gave_up : int;
  }

  let timeout_after s tries =
    Float.min s.cfg.rto_max
      (s.cfg.rto *. (s.cfg.backoff ** float_of_int (tries - 1)))
    +. (if s.cfg.max_jitter > 0.0 then Prng.float s.rng s.cfg.max_jitter
        else 0.0)

  (* Timers cannot return [Forward] actions, so every (re)transmission
     goes through self-injection: the timer injects the packet on
     [self_port] and the node handler turns that arrival into the
     actual [Forward].

     The timer re-arms *itself* after every retransmission it
     injects. Re-arming from the handler instead (as the first
     version did) wedges the sequence permanently if the
     self-injection never reaches the handler — a crash window over
     the sender, a full queue — because nothing else ever schedules
     another look at that seq: not retried, not counted as gave-up,
     [in_flight] never draining. *)
  let rec arm s seq =
    match Hashtbl.find_opt s.pending seq with
    | None -> ()
    | Some p ->
        let at = Sim.now s.sim +. timeout_after s p.tries in
        Sim.schedule s.sim ~at (fun sim ->
            match Hashtbl.find_opt s.pending seq with
            | None -> () (* acked meanwhile *)
            | Some p ->
                if p.tries > s.cfg.max_retries then begin
                  Hashtbl.remove s.pending seq;
                  s.s_gave_up <- s.s_gave_up + 1
                end
                else begin
                  p.tries <- p.tries + 1;
                  Sim.inject sim ~at:(Sim.now sim) ~node:s.node
                    ~port:self_port (Bitbuf.copy p.packet);
                  arm s seq
                end)

  let sender_handler s _sim ~now:_ ~ingress packet =
    if ingress = self_port then begin
      (match classify packet with
      | `Data frame ->
          if not (Hashtbl.mem s.pending frame.seq) then begin
            Hashtbl.replace s.pending frame.seq
              { packet = Bitbuf.copy packet; tries = 1 };
            if s.cfg.max_retries > 0 then arm s frame.seq
          end
      | `Ack _ | `Cust_ack _ | `Other | `Invalid _ | `Corrupt -> ());
      s.s_tx <- s.s_tx + 1;
      [ Sim.Forward (s.out_port, packet) ]
    end
    else
      match classify packet with
      | `Ack frame ->
          if Hashtbl.mem s.pending frame.seq then begin
            Hashtbl.remove s.pending frame.seq;
            s.s_acked <- s.s_acked + 1
          end;
          [ Sim.Consume ]
      | `Cust_ack bundle ->
          (* The first-hop custodian holds the bundle now: stop
             retransmitting end-to-end, the network owns delivery. *)
          if Hashtbl.mem s.pending bundle then begin
            Hashtbl.remove s.pending bundle;
            s.s_custodied <- s.s_custodied + 1
          end;
          [ Sim.Consume ]
      | `Corrupt -> [ Sim.Drop Errors.integrity_reason ]
      | `Invalid e -> [ Sim.Drop e ]
      | `Data _ | `Other -> [ Sim.Drop "reliable-unexpected" ]

  let add_sender ?(config = default_config) ?(custody = false) sim ~name ~seed
      ~src ~dst ~out_port =
    if config.rto <= 0.0 then invalid_arg "Reliable: rto must be positive";
    if config.backoff < 1.0 then invalid_arg "Reliable: backoff must be >= 1";
    if config.rto_max < config.rto then
      invalid_arg "Reliable: rto_max must be >= rto";
    if config.max_jitter < 0.0 || config.max_retries < 0 then
      invalid_arg "Reliable: negative jitter or retries";
    let s =
      {
        sim;
        node = -1;
        cfg = config;
        cust = custody;
        rng = Prng.create seed;
        src;
        dst;
        out_port;
        pending = Hashtbl.create 32;
        next_seq = 0l;
        s_sent = 0;
        s_tx = 0;
        s_acked = 0;
        s_custodied = 0;
        s_gave_up = 0;
      }
    in
    s.node <-
      Sim.add_node sim ~name (fun sim ~now ~ingress packet ->
          sender_handler s sim ~now ~ingress packet);
    s

  let send s ~at ~payload =
    let seq = s.next_seq in
    s.next_seq <- Int32.add s.next_seq 1l;
    s.s_sent <- s.s_sent + 1;
    let packet =
      build ~custody:s.cust ~next_header:data_next_header ~dst:s.dst
        ~src:s.src ~seq ~payload ()
    in
    Sim.inject s.sim ~at ~node:s.node ~port:self_port packet

  let sender_node s = s.node

  let sender_stats s =
    {
      sent = s.s_sent;
      transmissions = s.s_tx;
      acked = s.s_acked;
      custodied = s.s_custodied;
      gave_up = s.s_gave_up;
      in_flight = Hashtbl.length s.pending;
    }

  (* Every first delivery is kept for the receiver's life, so it is
     kept unboxed: [seen] is an open-addressing set of the sequences
     accepted (linear probing, at most half full, [vacant] in a free
     slot), and [seqs]/[times] hold the (seq, time) pairs in delivery
     order, [count] long. All three grow with deliveries; a sequence
     read off the wire sizes nothing. *)
  type receiver = {
    mutable seen : int array;
    mutable seqs : int array;
    mutable times : float array;
    mutable count : int;
    mutable r_dups : int;
    mutable r_rejected : int;
  }

  (* [Int32.to_int] never yields it. *)
  let vacant = min_int

  (* The slot holding [k] in [seen], or the vacant slot it would take. *)
  let slot seen k =
    let mask = Array.length seen - 1 in
    let rec probe i =
      if seen.(i) = k || seen.(i) = vacant then i else probe ((i + 1) land mask)
    in
    probe (Hashtbl.hash k land mask)

  let accepted r seq = r.count > 0 && r.seen.(slot r.seen seq) = seq

  let accept r seq now =
    if 2 * (r.count + 1) > Array.length r.seen then begin
      let seen = Array.make (max 16 (2 * Array.length r.seen)) vacant in
      Array.iter (fun k -> if k <> vacant then seen.(slot seen k) <- k) r.seen;
      r.seen <- seen
    end;
    r.seen.(slot r.seen seq) <- seq;
    if r.count = Array.length r.seqs then begin
      let n = max 16 (2 * r.count) in
      let seqs = Array.make n 0 and times = Array.make n 0.0 in
      Array.blit r.seqs 0 seqs 0 r.count;
      Array.blit r.times 0 times 0 r.count;
      r.seqs <- seqs;
      r.times <- times
    end;
    r.seqs.(r.count) <- seq;
    r.times.(r.count) <- now;
    r.count <- r.count + 1

  let receiver_handler r _sim ~now ~ingress packet =
    match classify packet with
    | `Data frame ->
        (* ACK every valid copy — re-acking duplicates is what stops
           the sender retransmitting when the first ACK was lost. For
           custody packets also ACK the last-hop custodian so it can
           release its stored copy (again on duplicates: the replay
           that produced the duplicate re-stored the bundle). *)
        let ack =
          build ~next_header:ack_next_header ~dst:frame.f_src
            ~src:frame.f_dst ~seq:frame.seq ~payload:"" ()
        in
        let acks =
          match frame.custody with
          | Some bundle ->
              [
                Sim.Forward (ingress, ack);
                Sim.Forward (ingress, Custody.build_ack ~bundle);
              ]
          | None -> [ Sim.Forward (ingress, ack) ]
        in
        let seq = Int32.to_int frame.seq in
        if accepted r seq then begin
          r.r_dups <- r.r_dups + 1;
          acks @ [ Sim.Drop "reliable-duplicate" ]
        end
        else begin
          accept r seq now;
          acks @ [ Sim.Consume ]
        end
    | `Corrupt ->
        r.r_rejected <- r.r_rejected + 1;
        [ Sim.Drop Errors.integrity_reason ]
    | `Invalid e -> [ Sim.Drop e ]
    | `Ack _ | `Cust_ack _ | `Other -> [ Sim.Drop "reliable-unexpected" ]

  let add_receiver sim ~name =
    let r =
      {
        seen = [||];
        seqs = [||];
        times = [||];
        count = 0;
        r_dups = 0;
        r_rejected = 0;
      }
    in
    let node = Sim.add_node sim ~name (fun sim ~now ~ingress packet ->
        receiver_handler r sim ~now ~ingress packet)
    in
    (r, node)

  let deliveries r = List.init r.count (fun i -> (Int32.of_int r.seqs.(i), r.times.(i)))
  let delivered r = r.count
  let duplicates r = r.r_dups
  let rejected r = r.r_rejected
end

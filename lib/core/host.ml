module Reliable = struct
  module Sim = Dip_netsim.Sim
  module Bitbuf = Dip_bitbuf.Bitbuf
  module Prng = Dip_stdext.Prng
  module Crc32 = Dip_stdext.Crc32

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

  (* With [custody] the locations grow by the 5-byte Custody region
     (tag + bundle id = seq) and the program gains the ignorable
     F_cust. The CRC still covers only locations[0..12) + payload, so
     custodians flipping the in-custody bit in flight don't break the
     end-to-end integrity check.

     Packets are not assembled FN by FN: everything before the payload
     but the sequence number, the bundle id and the CRC is fixed per
     (next header, custody, addresses), so each kind is a template
     {!Packet.build} made once, copied per packet and patched. *)
  let template ~custody ~next_header ~dst ~src =
    let n = if custody then loc_len + Custody.region_bytes else loc_len in
    let loc = Bytes.make n '\000' in
    Bytes.set_int32_be loc 0 dst;
    Bytes.set_int32_be loc 4 src;
    let fns =
      if custody then begin
        Custody.set_region loc ~off:loc_len ~flags:Custody.flag_request
          ~bundle:0l;
        fns @ [ Custody.fn_at ~loc:(8 * loc_len) ]
      end
      else fns
    in
    Packet.build ~next_header ~fns ~locations:(Bytes.to_string loc) ~payload:"" ()

  let loc_base = Header.wire_locations_offset
  let loc_bytes = Header.wire_fn_loc_len

  (* The CRC over locations[0..12) then the payload, read in place,
     as the unsigned value of the stored word. *)
  let crc p ~base =
    let b = Bitbuf.to_bytes p and pay = base + loc_bytes p in
    Crc32.digest_sub_int
      ~init:(Crc32.digest_sub_int ~init:0 b ~pos:base ~len:12)
      b ~pos:pay ~len:(Bytes.length b - pay)

  let set_crc p ~base = Bitbuf.set_uint32 p (base + 12) (Int32.of_int (crc p ~base))

  let crc_ok p ~base =
    Int32.to_int (Bitbuf.get_uint32 p (base + 12)) land 0xFFFFFFFF = crc p ~base

  type data_template = Bitbuf.t

  let data_template ~custody ~dst ~src =
    template ~custody ~next_header:data_next_header ~dst ~src

  let data tpl ~seq ~payload =
    let h = Bitbuf.length tpl and n = String.length payload in
    let p = Bitbuf.create (h + n) in
    Bitbuf.blit ~src:tpl ~src_off:0 ~dst:p ~dst_off:0 ~len:h;
    Bytes.blit_string payload 0 (Bitbuf.to_bytes p) h n;
    let base = loc_base p in
    Bitbuf.set_uint32 p (base + 8) seq;
    if loc_bytes p > loc_len then Bitbuf.set_uint32 p (base + loc_len + 1) seq;
    set_crc p ~base;
    p

  type kind = Data | Ack | Cust_ack | Other | Corrupt | Invalid of string

  (* Every check reads the packet where it lies: {!Packet.check}
     validates the header and FN triples as [Packet.parse] would,
     without building the view. *)
  let classify p =
    match Packet.check p with
    | Some e -> Invalid ("parse: " ^ e)
    | None ->
        let nh = Bitbuf.get_uint8 p 0 and n = loc_bytes p in
        if nh = Custody.ack_next_header then
          (* A hop-local custody ACK that reached an endpoint: the
             first custodian is taking over from the sender. *)
          if n < Custody.region_bytes then Invalid "custody: short ack region"
          else Cust_ack
        else if nh <> data_next_header && nh <> ack_next_header then Other
        else if n < loc_len then Invalid "reliable: short locations region"
        else
          let base = loc_base p in
          if not (crc_ok p ~base) then Corrupt
          else if nh = data_next_header then Data
          else Ack

  let dst p = Bitbuf.get_uint32 p (loc_base p)
  let src p = Bitbuf.get_uint32 p (loc_base p + 4)
  let seq p = Bitbuf.get_uint32 p (loc_base p + 8)

  let custody_requested p =
    loc_bytes p >= loc_len + Custody.region_bytes
    && Custody.read_flags p ~base:(loc_base p + loc_len) land Custody.flag_request
       <> 0

  let bundle p =
    if Bitbuf.get_uint8 p 0 = Custody.ack_next_header then
      Custody.read_bundle p ~base:(loc_base p)
    else Custody.read_bundle p ~base:(loc_base p + loc_len)

  (* Every receiver's ACK is this packet with its addresses, sequence
     number and CRC written. *)
  let ack_template =
    template ~custody:false ~next_header:ack_next_header ~dst:0l ~src:0l

  let ack_of p =
    let a = Bitbuf.copy ack_template and base = loc_base ack_template in
    Bitbuf.set_uint32 a base (src p);
    Bitbuf.set_uint32 a (base + 4) (dst p);
    Bitbuf.set_uint32 a (base + 8) (seq p);
    set_crc a ~base;
    a

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
    rng : Prng.t;
    out_port : Sim.port;
    template : data_template;
    (* By sequence number as an [int] ([Int32.to_int] of the wire
       word), so no probe boxes its key. *)
    pending : (int, pending) Hashtbl.t;
    mutable next_seq : int;
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
      | Data ->
          let seq = Int32.to_int (seq packet) in
          if not (Hashtbl.mem s.pending seq) then begin
            Hashtbl.replace s.pending seq
              { packet = Bitbuf.copy packet; tries = 1 };
            if s.cfg.max_retries > 0 then arm s seq
          end
      | Ack | Cust_ack | Other | Invalid _ | Corrupt -> ());
      s.s_tx <- s.s_tx + 1;
      [ Sim.Forward (s.out_port, packet) ]
    end
    else
      match classify packet with
      | Ack ->
          let seq = Int32.to_int (seq packet) in
          if Hashtbl.mem s.pending seq then begin
            Hashtbl.remove s.pending seq;
            s.s_acked <- s.s_acked + 1
          end;
          [ Sim.Consume ]
      | Cust_ack ->
          (* The first-hop custodian holds the bundle now: stop
             retransmitting end-to-end, the network owns delivery. *)
          let bundle = Int32.to_int (bundle packet) in
          if Hashtbl.mem s.pending bundle then begin
            Hashtbl.remove s.pending bundle;
            s.s_custodied <- s.s_custodied + 1
          end;
          [ Sim.Consume ]
      | Corrupt -> [ Sim.Drop Errors.integrity_reason ]
      | Invalid e -> [ Sim.Drop e ]
      | Data | Other -> [ Sim.Drop "reliable-unexpected" ]

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
        rng = Prng.create seed;
        out_port;
        template = data_template ~custody ~dst ~src;
        pending = Hashtbl.create 32;
        next_seq = 0;
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
    let seq = Int32.of_int s.next_seq in
    s.next_seq <- s.next_seq + 1;
    s.s_sent <- s.s_sent + 1;
    Sim.inject s.sim ~at ~node:s.node ~port:self_port (data s.template ~seq ~payload)

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

  (* The slot holding [k] in [seen], or the vacant slot it would take;
     the probe loop closes over nothing, so a lookup allocates
     nothing. *)
  let rec probe seen k ~mask i =
    if seen.(i) = k || seen.(i) = vacant then i else probe seen k ~mask ((i + 1) land mask)

  let slot seen k =
    let mask = Array.length seen - 1 in
    probe seen k ~mask (Hashtbl.hash k land mask)

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
    | Data ->
        (* ACK every valid copy — re-acking duplicates is what stops
           the sender retransmitting when the first ACK was lost. For
           custody packets also ACK the last-hop custodian so it can
           release its stored copy (again on duplicates: the replay
           that produced the duplicate re-stored the bundle). *)
        let seq = Int32.to_int (seq packet) in
        let last =
          if accepted r seq then begin
            r.r_dups <- r.r_dups + 1;
            Sim.Drop "reliable-duplicate"
          end
          else begin
            accept r seq now;
            Sim.Consume
          end
        in
        let ack = Sim.Forward (ingress, ack_of packet) in
        if custody_requested packet then
          [ ack; Sim.Forward (ingress, Custody.build_ack ~bundle:(bundle packet)); last ]
        else [ ack; last ]
    | Corrupt ->
        r.r_rejected <- r.r_rejected + 1;
        [ Sim.Drop Errors.integrity_reason ]
    | Invalid e -> [ Sim.Drop e ]
    | Ack | Cust_ack | Other -> [ Sim.Drop "reliable-unexpected" ]

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

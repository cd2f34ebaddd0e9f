module Bitbuf = Dip_bitbuf.Bitbuf
module Name = Dip_tables.Name
module Name_fib = Dip_tables.Name_fib
module Pit = Dip_tables.Pit
module Lru = Dip_tables.Lru

type t = {
  fib : Dip_netsim.Sim.port Name_fib.t;
  pit : string Pit.t; (* keyed by canonical name *)
  cache : (string, string) Lru.t option; (* content by canonical name *)
  interest_lifetime : float;
}

let create ?(cache_capacity = 0) ?(pit_capacity = 65536)
    ?(interest_lifetime = 4.0) () =
  {
    fib = Name_fib.create ();
    pit = Pit.create ~capacity:pit_capacity ();
    cache =
      (if cache_capacity > 0 then Some (Lru.create ~capacity:cache_capacity ())
       else None);
    interest_lifetime;
  }

let fib t = t.fib
let cache_enabled t = t.cache <> None

type verdict =
  | Forward of Dip_netsim.Sim.port list
  | Reply of Bitbuf.t
  | Silent
  | Discard of string

let process t ~now ~ingress buf =
  match Packet.decode buf with
  | Error e -> Discard e
  | Ok (Packet.Interest { name; _ }) -> (
      let key = Name.to_string name in
      let cached =
        match t.cache with Some cs -> Lru.find cs key | None -> None
      in
      match cached with
      | Some content -> Reply (Packet.encode (Packet.data name content))
      | None -> (
          match
            Pit.insert t.pit ~key ~port:ingress ~now
              ~lifetime:t.interest_lifetime
          with
          | Pit.Aggregated -> Silent
          | Pit.Rejected -> Discard "pit-full"
          | Pit.Forwarded -> (
              match Name_fib.lookup t.fib name with
              | Some (_, port) -> Forward [ port ]
              | None ->
                  (* Nothing upstream will answer; retract the entry
                     so the slot is not held for the lifetime. *)
                  ignore (Pit.consume t.pit ~key ~now);
                  Discard "no-fib-entry")))
  | Ok (Packet.Data { name; content }) -> (
      let key = Name.to_string name in
      match Pit.consume t.pit ~key ~now with
      | [] -> Discard "unsolicited-data"
      | ports ->
          (match t.cache with Some cs -> Lru.insert cs key content | None -> ());
          Forward ports)

let handler t _sim ~now ~ingress packet =
  match process t ~now ~ingress packet with
  | Forward ports -> List.map (fun p -> Dip_netsim.Sim.Forward (p, packet)) ports
  | Reply pkt -> [ Dip_netsim.Sim.Forward (ingress, pkt) ]
  | Silent -> []
  | Discard reason -> [ Dip_netsim.Sim.Drop reason ]

let producer_handler ~prefix ~content _sim ~now:_ ~ingress packet =
  match Packet.decode packet with
  | Ok (Packet.Interest { name; _ }) when Name.is_prefix ~prefix name -> (
      match content name with
      | Some body ->
          [ Dip_netsim.Sim.Forward (ingress, Packet.encode (Packet.data name body)) ]
      | None -> [ Dip_netsim.Sim.Drop "no-such-content" ])
  | Ok (Packet.Data _) -> [ Dip_netsim.Sim.Consume ]
  | Ok (Packet.Interest _) -> [ Dip_netsim.Sim.Drop "wrong-prefix" ]
  | Error e -> [ Dip_netsim.Sim.Drop e ]

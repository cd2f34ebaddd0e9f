(* A simulator's local deliveries, oldest first, as (node, time,
   packet). The simulator keeps no log of its own -- a long run would
   hold every delivered packet -- so a test that wants one records it
   through Sim.on_consume before running. *)
let record sim =
  let log = ref [] in
  Dip_netsim.Sim.on_consume sim (fun node time pkt -> log := (node, time, pkt) :: !log);
  fun () -> List.rev !log

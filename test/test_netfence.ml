(* Tests for the NetFence extension (F_cc, key 13) and the in-band
   telemetry extension (F_tel, key 14). *)

open Dip_core
module NF = Dip_netfence
module Bitbuf = Dip_bitbuf.Bitbuf
module Ipaddr = Dip_tables.Ipaddr

let registry = Ops.default_registry ()
let v4 = Ipaddr.V4.of_string

(* --- token bucket --- *)

let test_bucket_basic () =
  let b = NF.Token_bucket.create ~rate:1000.0 ~burst:500.0 ~now:0.0 in
  Alcotest.(check bool) "burst allows" true (NF.Token_bucket.consume b ~now:0.0 ~bytes:500);
  Alcotest.(check bool) "empty refuses" false (NF.Token_bucket.consume b ~now:0.0 ~bytes:1);
  (* After 0.1 s, 100 tokens have refilled. *)
  Alcotest.(check bool) "refill" true (NF.Token_bucket.consume b ~now:0.1 ~bytes:100);
  Alcotest.(check bool) "but no more" false (NF.Token_bucket.consume b ~now:0.1 ~bytes:1)

let test_bucket_burst_cap () =
  let b = NF.Token_bucket.create ~rate:1000.0 ~burst:200.0 ~now:0.0 in
  ignore (NF.Token_bucket.consume b ~now:0.0 ~bytes:200);
  (* A long idle period must not accumulate beyond the burst. *)
  Alcotest.(check (float 1e-6)) "capped at burst" 200.0
    (NF.Token_bucket.available b ~now:100.0)

let test_bucket_set_rate () =
  let b = NF.Token_bucket.create ~rate:100.0 ~burst:1000.0 ~now:0.0 in
  ignore (NF.Token_bucket.consume b ~now:0.0 ~bytes:1000);
  NF.Token_bucket.set_rate b 10000.0;
  Alcotest.(check bool) "faster refill" true
    (NF.Token_bucket.consume b ~now:0.1 ~bytes:900)

let test_bucket_validation () =
  Alcotest.(check bool) "bad rate" true
    (try ignore (NF.Token_bucket.create ~rate:0.0 ~burst:1.0 ~now:0.0); false
     with Invalid_argument _ -> true);
  let b = NF.Token_bucket.create ~rate:1.0 ~burst:1.0 ~now:5.0 in
  Alcotest.(check bool) "time backwards" true
    (try ignore (NF.Token_bucket.consume b ~now:4.0 ~bytes:1); false
     with Invalid_argument _ -> true)

(* --- AIMD --- *)

let test_aimd_additive_increase () =
  let a = Aimd.create ~increase:100.0 ~min_rate:1.0 ~initial:1000.0 () in
  Aimd.on_feedback a ~congested:false;
  Aimd.on_feedback a ~congested:false;
  Alcotest.(check (float 1e-6)) "two increases" 1200.0 (Aimd.rate a)

let test_aimd_multiplicative_decrease () =
  let a = Aimd.create ~decrease:0.5 ~min_rate:1.0 ~initial:1000.0 () in
  Aimd.on_feedback a ~congested:true;
  Alcotest.(check (float 1e-6)) "halved" 500.0 (Aimd.rate a)

let test_aimd_bounds () =
  let a = Aimd.create ~decrease:0.5 ~min_rate:400.0 ~max_rate:1100.0
      ~increase:1000.0 ~initial:1000.0 ()
  in
  Aimd.on_feedback a ~congested:false;
  Alcotest.(check (float 1e-6)) "max clamp" 1100.0 (Aimd.rate a);
  Aimd.on_feedback a ~congested:true;
  Aimd.on_feedback a ~congested:true;
  Aimd.on_feedback a ~congested:true;
  Alcotest.(check (float 1e-6)) "min clamp" 400.0 (Aimd.rate a)

let test_aimd_converges_after_congestion () =
  (* Sawtooth: repeated congestion must keep the rate bounded. *)
  let a = Aimd.create ~min_rate:1.0 ~initial:1e6 () in
  for _ = 1 to 100 do
    Aimd.on_feedback a ~congested:false;
    Aimd.on_feedback a ~congested:true
  done;
  Alcotest.(check bool) "bounded" true (Aimd.rate a < 1e6)

(* --- NetFence header --- *)

let test_nf_header_roundtrip () =
  let buf = Bitbuf.create NF.Header.size_bytes in
  NF.Header.init buf ~base:0 ~sender:77l ~rate:5000.0 ~timestamp:42l;
  Alcotest.(check int32) "sender" 77l (NF.Header.get_sender buf ~base:0);
  Alcotest.(check (float 1.0)) "rate" 5000.0 (NF.Header.get_rate buf ~base:0);
  Alcotest.(check int32) "timestamp" 42l (NF.Header.get_timestamp buf ~base:0);
  Alcotest.(check bool) "flag" true
    (NF.Header.get_flag buf ~base:0 = Some NF.Header.No_congestion)

let test_nf_header_mac () =
  let key = Dip_crypto.Prf.key_of_string "bottleneck-key-1" in
  let buf = Bitbuf.create NF.Header.size_bytes in
  NF.Header.init buf ~base:0 ~sender:1l ~rate:100.0 ~timestamp:9l;
  NF.Header.stamp ~key buf ~base:0;
  Alcotest.(check bool) "verifies" true (NF.Header.verify ~key buf ~base:0);
  (* Forging "no congestion" after the router marked it fails. *)
  NF.Header.set_flag buf ~base:0 NF.Header.Congestion;
  NF.Header.stamp ~key buf ~base:0;
  NF.Header.set_flag buf ~base:0 NF.Header.No_congestion;
  Alcotest.(check bool) "forged flag detected" false
    (NF.Header.verify ~key buf ~base:0)

(* --- policer --- *)

let policer ?mode () =
  NF.Policer.create ?mode ~key:(Dip_crypto.Prf.key_of_string "bottleneck-key-1") ()

let nf_buf ~rate =
  let buf = Bitbuf.create NF.Header.size_bytes in
  NF.Header.init buf ~base:0 ~sender:5l ~rate ~timestamp:0l;
  buf

let test_policer_pass_within_rate () =
  let p = policer () in
  let buf = nf_buf ~rate:100000.0 in
  Alcotest.(check bool) "pass" true
    (NF.Policer.police p buf ~base:0 ~now:0.0 ~size:1000 = NF.Policer.Pass);
  Alcotest.(check bool) "feedback stamped" true
    (NF.Header.verify ~key:(Dip_crypto.Prf.key_of_string "bottleneck-key-1")
       buf ~base:0)

let test_policer_marks_over_rate () =
  let p = policer () in
  let buf = nf_buf ~rate:100.0 (* tiny allowance *) in
  (* Exhaust the burst, then the next packet is marked. *)
  let rec drain n =
    if n > 0 then begin
      ignore (NF.Policer.police p buf ~base:0 ~now:0.0 ~size:1500);
      drain (n - 1)
    end
  in
  drain 20;
  Alcotest.(check bool) "marked" true
    (NF.Policer.police p buf ~base:0 ~now:0.0 ~size:1500 = NF.Policer.Marked);
  Alcotest.(check bool) "flag set" true
    (NF.Header.get_flag buf ~base:0 = Some NF.Header.Congestion)

let test_policer_drops_in_attack_mode () =
  let p = policer ~mode:NF.Policer.Police () in
  let buf = nf_buf ~rate:100.0 in
  let rec drain n =
    if n > 0 then begin
      ignore (NF.Policer.police p buf ~base:0 ~now:0.0 ~size:1500);
      drain (n - 1)
    end
  in
  drain 20;
  Alcotest.(check bool) "dropped" true
    (NF.Policer.police p buf ~base:0 ~now:0.0 ~size:1500 = NF.Policer.Dropped)

let test_policer_rate_ceiling () =
  (* A sender claiming an absurd rate is clamped to the ceiling. *)
  let p = NF.Policer.create ~rate_ceiling:1000.0 ~burst:1000.0
      ~key:(Dip_crypto.Prf.key_of_string "bottleneck-key-1") ()
  in
  let buf = nf_buf ~rate:1e9 in
  ignore (NF.Policer.police p buf ~base:0 ~now:0.0 ~size:1000);
  (* Burst exhausted; refill at the *ceiling* (1000 B/s), so after
     0.1 s only ~100 tokens exist. *)
  Alcotest.(check bool) "clamped" true
    (NF.Policer.police p buf ~base:0 ~now:0.1 ~size:1000 <> NF.Policer.Pass)

let test_policer_per_sender_isolation () =
  let p = policer ~mode:NF.Policer.Police () in
  let attacker = nf_buf ~rate:1000.0 in
  NF.Header.set_sender attacker ~base:0 666l;
  let legit = nf_buf ~rate:1000.0 in
  NF.Header.set_sender legit ~base:0 7l;
  (* The attacker floods and gets dropped … *)
  for _ = 1 to 50 do
    ignore (NF.Policer.police p attacker ~base:0 ~now:0.0 ~size:1500)
  done;
  Alcotest.(check bool) "attacker dropped" true
    (NF.Policer.police p attacker ~base:0 ~now:0.0 ~size:1500 = NF.Policer.Dropped);
  (* … while the legitimate sender still passes. *)
  Alcotest.(check bool) "legit passes" true
    (NF.Policer.police p legit ~base:0 ~now:0.0 ~size:1000 = NF.Policer.Pass);
  Alcotest.(check int) "two buckets" 2 (NF.Policer.sender_count p)

(* --- F_cc over the DIP engine --- *)

let cc_env ?mode () =
  let env = Env.create ~name:"bottleneck" () in
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
  Env.set_netfence env (policer ?mode ());
  env

let test_fcc_forwards_within_rate () =
  let env = cc_env () in
  let pkt =
    Realize.netfence ~src:(v4 "192.0.2.1") ~dst:(v4 "10.0.0.1") ~sender:5l
      ~rate:1e6 ~timestamp:0l ~payload:"x" ()
  in
  match Engine.process ~registry env ~now:0.0 ~ingress:0 pkt with
  | Engine.Forwarded [ 1 ], _ -> ()
  | Engine.Dropped r, _ -> Alcotest.failf "dropped: %s" r
  | _ -> Alcotest.fail "expected forward"

let test_fcc_drops_flood_in_attack_mode () =
  let env = cc_env ~mode:NF.Policer.Police () in
  let pkt () =
    Realize.netfence ~src:(v4 "192.0.2.1") ~dst:(v4 "10.0.0.1") ~sender:5l
      ~rate:100.0 ~timestamp:0l ~payload:(String.make 1400 'a') ()
  in
  let dropped = ref 0 in
  for _ = 1 to 30 do
    match Engine.process ~registry env ~now:0.0 ~ingress:0 (pkt ()) with
    | Engine.Dropped "cc-rate-exceeded", _ -> incr dropped
    | _ -> ()
  done;
  Alcotest.(check bool) (Printf.sprintf "flood policed (%d dropped)" !dropped)
    true (!dropped > 15)

let test_fcc_noop_without_policer () =
  (* A transit router without a policer leaves the header alone. *)
  let env = Env.create ~name:"transit" () in
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
  let pkt =
    Realize.netfence ~src:(v4 "192.0.2.1") ~dst:(v4 "10.0.0.1") ~sender:5l
      ~rate:100.0 ~timestamp:0l ~payload:"x" ()
  in
  match Engine.process ~registry env ~now:0.0 ~ingress:0 pkt with
  | Engine.Forwarded [ 1 ], _ -> ()
  | _ -> Alcotest.fail "transit must forward untouched"

let test_fcc_aimd_closed_loop () =
  (* Sender + bottleneck closed loop: with AIMD reacting to the
     marked feedback, the sender's rate converges near the ceiling
     instead of staying at its initial over-claim. *)
  let ceiling = 10_000.0 in
  let env = Env.create ~name:"b" () in
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
  Env.set_netfence env
    (NF.Policer.create ~rate_ceiling:ceiling ~burst:1500.0
       ~key:(Dip_crypto.Prf.key_of_string "bottleneck-key-1") ());
  let aimd = Aimd.create ~increase:500.0 ~min_rate:100.0 ~initial:100_000.0 () in
  let size = 1000 in
  (* The sender transmits at its AIMD-allowed rate: the gap between
     packets is size / rate. Above the ceiling the bucket drains and
     packets get marked; below it they pass. *)
  let clock = ref 0.0 in
  let congested_feedback = ref false in
  for _ = 1 to 400 do
    clock := !clock +. (float_of_int size /. Aimd.rate aimd);
    let now = !clock in
    let pkt =
      Realize.netfence ~src:(v4 "192.0.2.1") ~dst:(v4 "10.0.0.1") ~sender:5l
        ~rate:(Aimd.rate aimd) ~timestamp:0l
        ~payload:(String.make (size - 100) 'p') ()
    in
    (match Engine.process ~registry env ~now ~ingress:0 pkt with
    | Engine.Forwarded _, _ ->
        let view = Result.get_ok (Packet.parse pkt) in
        congested_feedback :=
          NF.Header.get_flag pkt ~base:view.Packet.loc_base
          = Some NF.Header.Congestion
    | _ -> congested_feedback := true);
    Aimd.on_feedback aimd ~congested:!congested_feedback
  done;
  let final = Aimd.rate aimd in
  Alcotest.(check bool)
    (Printf.sprintf "converged near ceiling (%.0f B/s)" final)
    true
    (final < 4.0 *. ceiling && final > 0.05 *. ceiling)

(* --- telemetry --- *)

let test_telemetry_region () =
  Alcotest.(check int) "size" 41 (Telemetry.region_size ~max_hops:5);
  Alcotest.(check int) "capacity" 5 (Telemetry.capacity ~region_bytes:41)

let test_telemetry_append_read () =
  let region_bytes = Telemetry.region_size ~max_hops:3 in
  let buf = Bitbuf.create region_bytes in
  Telemetry.init buf ~base:0;
  let r i = { Telemetry.node_id = i; timestamp = Int32.of_int (100 * i); queue_depth = i * 7 } in
  Alcotest.(check bool) "r1" true (Telemetry.append buf ~base:0 ~region_bytes (r 1));
  Alcotest.(check bool) "r2" true (Telemetry.append buf ~base:0 ~region_bytes (r 2));
  let records, overflow = Telemetry.read buf ~base:0 ~region_bytes in
  Alcotest.(check int) "two records" 2 (List.length records);
  Alcotest.(check bool) "no overflow" false overflow;
  Alcotest.(check bool) "path order" true
    (List.map (fun x -> x.Telemetry.node_id) records = [ 1; 2 ])

let test_telemetry_overflow () =
  let region_bytes = Telemetry.region_size ~max_hops:1 in
  let buf = Bitbuf.create region_bytes in
  Telemetry.init buf ~base:0;
  let r = { Telemetry.node_id = 1; timestamp = 0l; queue_depth = 0 } in
  Alcotest.(check bool) "first fits" true (Telemetry.append buf ~base:0 ~region_bytes r);
  Alcotest.(check bool) "second refused" false (Telemetry.append buf ~base:0 ~region_bytes r);
  let records, overflow = Telemetry.read buf ~base:0 ~region_bytes in
  Alcotest.(check int) "one record" 1 (List.length records);
  Alcotest.(check bool) "overflow flagged" true overflow

let test_ftel_collects_path () =
  (* Three DIP routers append their identities; the packet arrives
     with the whole path recorded. *)
  let pkt =
    Realize.ipv4_telemetry ~max_hops:4 ~src:(v4 "192.0.2.1") ~dst:(v4 "10.0.0.1")
      ~payload:"t" ()
  in
  List.iter
    (fun node_id ->
      let env = Env.create ~name:(Printf.sprintf "r%d" node_id) () in
      Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
      Env.set_telemetry_identity env ~node_id ~queue_depth:(fun () -> node_id * 10);
      match Engine.process ~registry env ~now:(float_of_int node_id) ~ingress:0 pkt with
      | Engine.Forwarded _, _ -> ()
      | Engine.Dropped r, _ -> Alcotest.failf "r%d dropped: %s" node_id r
      | _ -> Alcotest.fail "expected forward")
    [ 1; 2; 3 ];
  let view = Result.get_ok (Packet.parse pkt) in
  let region_bytes = Telemetry.region_size ~max_hops:4 in
  let records, overflow =
    Telemetry.read pkt ~base:view.Packet.loc_base ~region_bytes
  in
  Alcotest.(check bool) "no overflow" false overflow;
  Alcotest.(check (list int)) "node ids in path order" [ 1; 2; 3 ]
    (List.map (fun r -> r.Telemetry.node_id) records);
  Alcotest.(check (list int)) "queue depths" [ 10; 20; 30 ]
    (List.map (fun r -> r.Telemetry.queue_depth) records)

let test_ftel_never_blocks () =
  (* Overflowing telemetry must not stop forwarding. *)
  let pkt =
    Realize.ipv4_telemetry ~max_hops:1 ~src:(v4 "192.0.2.1") ~dst:(v4 "10.0.0.1")
      ~payload:"t" ()
  in
  let fwd i =
    let env = Env.create ~name:(Printf.sprintf "r%d" i) () in
    Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 1;
    Env.set_telemetry_identity env ~node_id:i ~queue_depth:(fun () -> 0);
    match Engine.process ~registry env ~now:0.0 ~ingress:0 pkt with
    | Engine.Forwarded _, _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "hop 1" true (fwd 1);
  Alcotest.(check bool) "hop 2 still forwards" true (fwd 2);
  let view = Result.get_ok (Packet.parse pkt) in
  let _, overflow =
    Telemetry.read pkt ~base:view.Packet.loc_base
      ~region_bytes:(Telemetry.region_size ~max_hops:1)
  in
  Alcotest.(check bool) "overflow recorded" true overflow

(* --- properties --- *)

let prop_bucket_never_negative =
  QCheck.Test.make ~name:"token bucket: tokens never negative" ~count:300
    QCheck.(small_list (pair (int_range 0 1000) (int_range 1 2000)))
    (fun events ->
      let b = NF.Token_bucket.create ~rate:1000.0 ~burst:1500.0 ~now:0.0 in
      let t = ref 0.0 in
      List.for_all
        (fun (dt, bytes) ->
          t := !t +. (float_of_int dt /. 1000.0);
          ignore (NF.Token_bucket.consume b ~now:!t ~bytes);
          NF.Token_bucket.available b ~now:!t >= 0.0)
        events)

let prop_aimd_within_bounds =
  QCheck.Test.make ~name:"aimd: rate stays within bounds" ~count:300
    QCheck.(small_list bool)
    (fun feedback ->
      let a = Aimd.create ~min_rate:10.0 ~max_rate:1000.0 ~initial:100.0 () in
      List.for_all
        (fun congested ->
          Aimd.on_feedback a ~congested;
          Aimd.rate a >= 10.0 && Aimd.rate a <= 1000.0)
        feedback)

let () =
  Alcotest.run "netfence"
    [
      ( "token-bucket",
        [
          Alcotest.test_case "basic" `Quick test_bucket_basic;
          Alcotest.test_case "burst cap" `Quick test_bucket_burst_cap;
          Alcotest.test_case "set rate" `Quick test_bucket_set_rate;
          Alcotest.test_case "validation" `Quick test_bucket_validation;
          QCheck_alcotest.to_alcotest prop_bucket_never_negative;
        ] );
      ( "aimd",
        [
          Alcotest.test_case "additive increase" `Quick test_aimd_additive_increase;
          Alcotest.test_case "multiplicative decrease" `Quick test_aimd_multiplicative_decrease;
          Alcotest.test_case "bounds" `Quick test_aimd_bounds;
          Alcotest.test_case "sawtooth bounded" `Quick test_aimd_converges_after_congestion;
          QCheck_alcotest.to_alcotest prop_aimd_within_bounds;
        ] );
      ( "header",
        [
          Alcotest.test_case "roundtrip" `Quick test_nf_header_roundtrip;
          Alcotest.test_case "feedback MAC" `Quick test_nf_header_mac;
        ] );
      ( "policer",
        [
          Alcotest.test_case "pass within rate" `Quick test_policer_pass_within_rate;
          Alcotest.test_case "marks over rate" `Quick test_policer_marks_over_rate;
          Alcotest.test_case "drops in attack mode" `Quick test_policer_drops_in_attack_mode;
          Alcotest.test_case "rate ceiling" `Quick test_policer_rate_ceiling;
          Alcotest.test_case "per-sender isolation" `Quick test_policer_per_sender_isolation;
        ] );
      ( "f-cc",
        [
          Alcotest.test_case "forwards within rate" `Quick test_fcc_forwards_within_rate;
          Alcotest.test_case "drops flood" `Quick test_fcc_drops_flood_in_attack_mode;
          Alcotest.test_case "noop without policer" `Quick test_fcc_noop_without_policer;
          Alcotest.test_case "AIMD closed loop" `Quick test_fcc_aimd_closed_loop;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "region sizing" `Quick test_telemetry_region;
          Alcotest.test_case "append/read" `Quick test_telemetry_append_read;
          Alcotest.test_case "overflow" `Quick test_telemetry_overflow;
          Alcotest.test_case "F_tel collects path" `Quick test_ftel_collects_path;
          Alcotest.test_case "F_tel never blocks" `Quick test_ftel_never_blocks;
        ] );
    ]

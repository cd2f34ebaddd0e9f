(* Tests for the PISA cost model: the Tofino stage/pass/resubmit
   estimate of §4.1. *)

open Dip_pisa
open Dip_core

let cfg = Cost.tofino_like

let test_cost_ip_single_pass () =
  let e =
    Cost.estimate cfg ~header_bytes:26
      [ Opkey.F_32_match; Opkey.F_source ]
  in
  Alcotest.(check int) "one pass" 1 e.Cost.passes

let test_cost_em2_vs_aes () =
  let keys = [ Opkey.F_parm; Opkey.F_mac; Opkey.F_mark ] in
  let em2 = Cost.estimate cfg ~alg:Dip_opt.Protocol.EM2 ~header_bytes:98 keys in
  let aes = Cost.estimate cfg ~alg:Dip_opt.Protocol.AES ~header_bytes:98 keys in
  Alcotest.(check bool) "AES forces resubmits" true (aes.Cost.passes > em2.Cost.passes);
  Alcotest.(check bool) "AES slower" true (aes.Cost.time_ns > em2.Cost.time_ns)

let test_cost_opt_pricier_than_ip () =
  let ip = Cost.estimate cfg ~header_bytes:26 [ Opkey.F_32_match; Opkey.F_source ] in
  let opt =
    Cost.estimate cfg ~header_bytes:98 [ Opkey.F_parm; Opkey.F_mac; Opkey.F_mark ]
  in
  Alcotest.(check bool) "MAC operations are expensive (Fig. 2 shape)" true
    (opt.Cost.time_ns > ip.Cost.time_ns)

let test_cost_parallel_helps () =
  let keys = [ Opkey.F_fib; Opkey.F_parm; Opkey.F_mac; Opkey.F_mark ] in
  let seq = Cost.estimate cfg ~header_bytes:108 keys in
  let par = Cost.estimate cfg ~parallel:true ~header_bytes:108 keys in
  Alcotest.(check bool) "parallel never worse" true
    (par.Cost.time_ns <= seq.Cost.time_ns);
  Alcotest.(check bool) "fewer effective stages" true
    (par.Cost.stages_used < seq.Cost.stages_used)

let test_cost_free_source_op () =
  let c = Cost.op_cost ~alg:Dip_opt.Protocol.EM2 Opkey.F_source in
  Alcotest.(check int) "no stages" 0 c.Cost.stages

let () =
  Alcotest.run "pisa"
    [
      ( "cost",
        [
          Alcotest.test_case "IP single pass" `Quick test_cost_ip_single_pass;
          Alcotest.test_case "2EM vs AES" `Quick test_cost_em2_vs_aes;
          Alcotest.test_case "OPT pricier than IP" `Quick test_cost_opt_pricier_than_ip;
          Alcotest.test_case "parallel helps" `Quick test_cost_parallel_helps;
          Alcotest.test_case "free source op" `Quick test_cost_free_source_op;
        ] );
    ]

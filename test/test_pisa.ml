(* Tests for the PISA model: the cost estimator and the unrolled
   (compiled) dispatch of §4.1. *)

open Dip_pisa
open Dip_core
module Bitbuf = Dip_bitbuf.Bitbuf
module Ipaddr = Dip_tables.Ipaddr
module Name = Dip_tables.Name

let reg = Ops.default_registry ()
let v4 = Ipaddr.V4.of_string
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

(* --- compiled dispatch --- *)

let env_v4 () =
  let env = Env.create ~name:"r" () in
  Dip_ip.Ipv4.add_route env.Env.v4_routes (Ipaddr.Prefix.of_string "10.0.0.0/8") 3;
  env

let ip_pkt ?(dst = "10.1.2.3") () =
  Realize.ipv4 ~src:(v4 "192.0.2.1") ~dst:(v4 dst) ~payload:"xx" ()

let test_compile_ip () =
  match Compile.compile ~registry:reg ~template:(ip_pkt ()) with
  | Error e -> Alcotest.fail e
  | Ok prog ->
      Alcotest.(check int) "two router FNs" 2 (Compile.fn_count prog);
      Alcotest.(check (list string)) "keys in order" [ "F_32_match"; "F_source" ]
        (List.map Opkey.name (Compile.keys prog))

let test_compiled_matches_interpreter () =
  let env = env_v4 () in
  let prog =
    match Compile.compile ~registry:reg ~template:(ip_pkt ()) with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  (* Same shape, different destination: both engines agree. *)
  List.iter
    (fun dst ->
      let a = ip_pkt ~dst () in
      let b = ip_pkt ~dst () in
      let vi, _ = Engine.process ~registry:reg env ~now:0.0 ~ingress:0 a in
      let vc = Compile.run prog env ~now:0.0 ~ingress:0 b in
      let show = function
        | Engine.Forwarded p -> "fwd:" ^ String.concat "," (List.map string_of_int p)
        | Engine.Delivered -> "deliver"
        | Engine.Responded _ -> "respond"
        | Engine.Quiet -> "quiet"
        | Engine.Dropped r -> "drop:" ^ r
        | Engine.Unsupported k -> "unsup:" ^ Opkey.name k
      in
      Alcotest.(check string) ("verdict for " ^ dst) (show vi) (show vc))
    [ "10.1.2.3"; "10.250.0.9"; "203.0.113.5" ]

let test_compiled_shape_mismatch () =
  let prog =
    match Compile.compile ~registry:reg ~template:(ip_pkt ()) with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let ndn = Realize.ndn_interest ~name:(Name.of_string "/a") ~payload:"" () in
  (match Compile.run prog (env_v4 ()) ~now:0.0 ~ingress:0 ndn with
  | Engine.Dropped "shape-mismatch" -> ()
  | _ -> Alcotest.fail "different shape must miss");
  Alcotest.(check bool) "matches template shape" true
    (Compile.matches prog (ip_pkt ~dst:"99.0.0.1" ()))

let test_compiled_opt_chain () =
  (* The compiled program must preserve OPT semantics end to end. *)
  let g = Dip_stdext.Prng.create 7L in
  let secret = Dip_opt.Drkey.secret_gen g in
  let dst_secret = Dip_opt.Drkey.secret_gen g in
  let session_id = 42L in
  let session_keys = Dip_opt.Drkey.session_keys [ secret ] ~session_id in
  let dest_key = Dip_opt.Drkey.derive dst_secret ~session_id in
  let router = Env.create ~name:"r" () in
  Env.set_opt_identity router ~secret ~hop:1;
  Dip_ip.Ipv4.add_route router.Env.v4_routes (Ipaddr.Prefix.of_string "0.0.0.0/0") 1;
  let pkt = Realize.opt ~hops:1 ~session_id ~timestamp:1l ~dest_key ~payload:"pl" () in
  let prog =
    match Compile.compile ~registry:reg ~template:pkt with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  (match Compile.run prog router ~now:0.0 ~ingress:0 pkt with
  | Engine.Dropped "no-forwarding-decision" -> () (* OPT has no fwd FN *)
  | Engine.Dropped r -> Alcotest.failf "router dropped: %s" r
  | _ -> ());
  let host = Env.create ~name:"h" () in
  Env.register_opt_session host ~session_id ~session_keys ~dest_key;
  match Engine.host_process ~registry:reg host ~now:0.0 ~ingress:0 pkt with
  | Engine.Delivered, _ -> ()
  | Engine.Dropped r, _ -> Alcotest.failf "verify failed after compiled run: %s" r
  | _ -> Alcotest.fail "expected delivery"

let test_compile_rejects_unsupported_mandatory () =
  let limited = Registry.restrict reg [ Opkey.F_32_match; Opkey.F_source ] in
  let opt_pkt =
    Realize.opt ~hops:1 ~session_id:1L ~timestamp:0l
      ~dest_key:(String.make 16 'k') ~payload:"" ()
  in
  match Compile.compile ~registry:limited ~template:opt_pkt with
  | Error e -> Alcotest.(check string) "names key" "cannot compile: F_parm unsupported" e
  | Ok _ -> Alcotest.fail "must refuse mandatory unsupported FNs"

let test_compile_estimate () =
  let prog =
    match Compile.compile ~registry:reg ~template:(ip_pkt ()) with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let e = Compile.estimate prog cfg in
  Alcotest.(check int) "one pass for IP" 1 e.Cost.passes;
  Alcotest.(check bool) "positive time" true (e.Cost.time_ns > 0.0)


(* --- PHV --- *)

let mk_phv () =
  let pkt = ip_pkt () in
  let phv = Phv.create pkt in
  Phv.bind phv "hop" (Dip_bitbuf.Field.v ~off_bits:16 ~len_bits:8);
  phv

let test_phv_containers () =
  let phv = mk_phv () in
  Alcotest.(check int64) "initial hop" 64L (Phv.get phv "hop");
  Phv.set phv "hop" 63L;
  Alcotest.(check int64) "written through" 63L (Phv.get phv "hop");
  (* The write landed in the packet bytes (deparsing is implicit). *)
  Alcotest.(check int) "wire updated" 63 (Bitbuf.get_uint8 (Phv.packet phv) 2);
  Alcotest.(check bool) "bound" true (Phv.bound phv "hop");
  Alcotest.(check bool) "unbound" false (Phv.bound phv "nope")

let test_phv_bounds () =
  let phv = Phv.create (Bitbuf.create 4) in
  Alcotest.(check bool) "oob bind rejected" true
    (try Phv.bind phv "x" (Dip_bitbuf.Field.v ~off_bits:24 ~len_bits:16); false
     with Invalid_argument _ -> true)

let test_phv_meta_and_flags () =
  let phv = mk_phv () in
  Alcotest.(check int64) "meta default" 0L (Phv.get_meta phv "rounds");
  Phv.set_meta phv "rounds" 3L;
  Alcotest.(check int64) "meta set" 3L (Phv.get_meta phv "rounds");
  Alcotest.(check (option int)) "no egress" None (Phv.egress phv);
  Phv.set_egress phv 4;
  Alcotest.(check (option int)) "egress" (Some 4) (Phv.egress phv);
  Phv.request_resubmit phv;
  Alcotest.(check bool) "resubmit" true (Phv.resubmit_requested phv);
  Phv.clear_resubmit phv;
  Alcotest.(check bool) "cleared" false (Phv.resubmit_requested phv)

(* --- Parser --- *)

let test_parser_validation () =
  Alcotest.(check bool) "unknown target" true
    (try
       ignore
         (Parser.build ~start:"s"
            [ { Parser.name = "s"; extracts = [];
                transition = Parser.Select ("x", [], "missing") } ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "cycle rejected" true
    (try
       ignore
         (Parser.build ~start:"a"
            [
              { Parser.name = "a"; extracts = [];
                transition = Parser.Select ("x", [], "b") };
              { Parser.name = "b"; extracts = [];
                transition = Parser.Select ("x", [], "a") };
            ]);
       false
     with Invalid_argument _ -> true)

(* The DIP-32 parse graph (Realize.ipv4's layout: 6-byte basic header,
   two FN triples, then dst and src at byte 18): FN_Num selects the
   shape, anything else is rejected. *)
let dip32_parser () =
  let f ~off ~len = Dip_bitbuf.Field.v ~off_bits:off ~len_bits:len in
  Parser.build ~start:"start"
    [
      {
        Parser.name = "start";
        extracts = [ { Parser.container = "fn_num"; field = f ~off:8 ~len:8 } ];
        transition = Parser.Select ("fn_num", [ (2L, "dip32") ], "reject");
      };
      {
        Parser.name = "dip32";
        extracts =
          [
            { Parser.container = "dip32_dst"; field = f ~off:(8 * 18) ~len:32 };
            { Parser.container = "dip32_src"; field = f ~off:(8 * 22) ~len:32 };
          ];
        transition = Parser.Accept;
      };
      {
        Parser.name = "reject";
        extracts = [];
        transition = Parser.Reject "unsupported shape (preset slices)";
      };
    ]

let test_parser_truncated_packet () =
  let p = dip32_parser () in
  match Parser.run p (Bitbuf.create 8) with
  | Error e -> Alcotest.(check bool) "clean error" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "truncated packet must not parse"

let test_parser_shape_select () =
  let p = dip32_parser () in
  (* The DIP-32 shape parses… *)
  (match Parser.run p (ip_pkt ()) with
  | Ok phv -> Alcotest.(check int64) "dst slice" 0x0A010203L (Phv.get phv "dip32_dst")
  | Error e -> Alcotest.fail e);
  (* …another FN count is rejected by the select. *)
  let ndn = Realize.ndn_interest ~name:(Name.of_string "/x") ~payload:"" () in
  match Parser.run p ndn with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-DIP-32 shape must be rejected"

(* --- Table --- *)

let test_table_exact () =
  let hit = ref "" in
  let t = Table.create ~name:"t" ~key:"k" Table.Exact in
  Table.add_exact t 7L ~name:"seven" (fun _ -> hit := "seven");
  let phv = Phv.create (Bitbuf.create 2) in
  Phv.bind phv "k" (Dip_bitbuf.Field.v ~off_bits:0 ~len_bits:8);
  Phv.set phv "k" 7L;
  Alcotest.(check string) "hit" "seven" (Table.apply t phv);
  Alcotest.(check string) "side effect" "seven" !hit;
  Phv.set phv "k" 8L;
  Alcotest.(check string) "miss -> default" "NoAction" (Table.apply t phv)

let test_table_lpm_longest_wins () =
  let t = Table.create ~name:"t" ~key:"k" Table.Lpm in
  Table.add_lpm t ~value:0x0A000000L ~prefix_len:8 ~width:32 ~name:"coarse" (fun _ -> ());
  Table.add_lpm t ~value:0x0A010000L ~prefix_len:16 ~width:32 ~name:"fine" (fun _ -> ());
  let phv = Phv.create (Bitbuf.create 4) in
  Phv.bind phv "k" (Dip_bitbuf.Field.v ~off_bits:0 ~len_bits:32);
  Phv.set phv "k" 0x0A010203L;
  Alcotest.(check string) "longest" "fine" (Table.apply t phv);
  Phv.set phv "k" 0x0A990203L;
  Alcotest.(check string) "fallback" "coarse" (Table.apply t phv)

let test_table_ternary_priority () =
  let t = Table.create ~name:"t" ~key:"k" Table.Ternary in
  Table.add_ternary t ~value:0x10L ~mask:0xF0L ~priority:5 ~name:"low" (fun _ -> ());
  Table.add_ternary t ~value:0x12L ~mask:0xFFL ~priority:1 ~name:"high" (fun _ -> ());
  let phv = Phv.create (Bitbuf.create 1) in
  Phv.bind phv "k" (Dip_bitbuf.Field.v ~off_bits:0 ~len_bits:8);
  Phv.set phv "k" 0x12L;
  Alcotest.(check string) "priority wins" "high" (Table.apply t phv);
  Phv.set phv "k" 0x15L;
  Alcotest.(check string) "masked match" "low" (Table.apply t phv)

let test_table_kind_guards () =
  let t = Table.create ~name:"t" ~key:"k" Table.Exact in
  Alcotest.(check bool) "lpm on exact" true
    (try Table.add_lpm t ~value:0L ~prefix_len:8 ~width:32 ~name:"x" (fun _ -> ()); false
     with Invalid_argument _ -> true)

(* --- Pipeline --- *)

(* A stylized multi-pass MAC: each pass completes one "round" and
   resubmits until [rounds] are done -- the AES pattern of §4.1. The
   round counter lives in PHV metadata, surviving resubmission like
   Tofino's resubmit metadata. *)
let resubmit_pipeline ~rounds =
  let mac =
    Table.create
      ~default:
        ( "mac_round",
          fun phv ->
            let done_ = Phv.get_meta phv "mac_rounds" in
            if Int64.to_int done_ + 1 >= rounds then begin
              Phv.set_meta phv "mac_rounds" (Int64.of_int rounds);
              Phv.set_egress phv 1
            end
            else begin
              Phv.set_meta phv "mac_rounds" (Int64.add done_ 1L);
              Phv.request_resubmit phv
            end )
      ~name:"mac" ~key:"hop_limit" Table.Exact
  in
  Pipeline.build [ { Pipeline.label = "mac"; tables = [ mac ] } ]

let test_pipeline_resubmit_accounting () =
  let pl = resubmit_pipeline ~rounds:5 in
  let pkt = ip_pkt () in
  let phv = Phv.create pkt in
  Phv.bind phv "hop_limit" (Dip_bitbuf.Field.v ~off_bits:16 ~len_bits:8);
  let r = Pipeline.run pl phv in
  Alcotest.(check int) "5 rounds = 5 passes" 5 r.Pipeline.passes;
  Alcotest.(check (option int)) "eventually egresses" (Some 1) r.Pipeline.egress

let test_pipeline_resubmit_cap () =
  let pl = resubmit_pipeline ~rounds:100 in
  let pkt = ip_pkt () in
  let phv = Phv.create pkt in
  Phv.bind phv "hop_limit" (Dip_bitbuf.Field.v ~off_bits:16 ~len_bits:8);
  let r = Pipeline.run pl phv in
  Alcotest.(check (option string)) "capped" (Some "resubmit-limit")
    r.Pipeline.dropped

let test_pipeline_build_guards () =
  Alcotest.(check bool) "no stages" true
    (try ignore (Pipeline.build []); false with Invalid_argument _ -> true);
  let stage = { Pipeline.label = "s"; tables = [] } in
  Alcotest.(check bool) "too many stages" true
    (try ignore (Pipeline.build (List.init 13 (fun _ -> stage))); false
     with Invalid_argument _ -> true)

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
      ( "phv",
        [
          Alcotest.test_case "containers" `Quick test_phv_containers;
          Alcotest.test_case "bounds" `Quick test_phv_bounds;
          Alcotest.test_case "meta and flags" `Quick test_phv_meta_and_flags;
        ] );
      ( "parser",
        [
          Alcotest.test_case "validation" `Quick test_parser_validation;
          Alcotest.test_case "truncated packet" `Quick test_parser_truncated_packet;
          Alcotest.test_case "shape select" `Quick test_parser_shape_select;
        ] );
      ( "table",
        [
          Alcotest.test_case "exact" `Quick test_table_exact;
          Alcotest.test_case "lpm longest wins" `Quick test_table_lpm_longest_wins;
          Alcotest.test_case "ternary priority" `Quick test_table_ternary_priority;
          Alcotest.test_case "kind guards" `Quick test_table_kind_guards;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "resubmit accounting" `Quick test_pipeline_resubmit_accounting;
          Alcotest.test_case "resubmit cap" `Quick test_pipeline_resubmit_cap;
          Alcotest.test_case "build guards" `Quick test_pipeline_build_guards;
        ] );
      ( "compile",
        [
          Alcotest.test_case "IP program" `Quick test_compile_ip;
          Alcotest.test_case "parity with interpreter" `Quick test_compiled_matches_interpreter;
          Alcotest.test_case "shape mismatch" `Quick test_compiled_shape_mismatch;
          Alcotest.test_case "OPT semantics preserved" `Quick test_compiled_opt_chain;
          Alcotest.test_case "rejects unsupported" `Quick test_compile_rejects_unsupported_mandatory;
          Alcotest.test_case "estimate" `Quick test_compile_estimate;
        ] );
    ]

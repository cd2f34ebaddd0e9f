type t =
  | F_32_match
  | F_128_match
  | F_source
  | F_fib
  | F_pit
  | F_parm
  | F_mac
  | F_mark
  | F_ver
  | F_dag
  | F_intent
  | F_pass
  | F_cc
  | F_tel
  | F_hvf
  | F_cust

let to_int = function
  | F_32_match -> 1
  | F_128_match -> 2
  | F_source -> 3
  | F_fib -> 4
  | F_pit -> 5
  | F_parm -> 6
  | F_mac -> 7
  | F_mark -> 8
  | F_ver -> 9
  | F_dag -> 10
  | F_intent -> 11
  | F_pass -> 12
  | F_cc -> 13
  | F_tel -> 14
  | F_hvf -> 15
  | F_cust -> 16

let all =
  [
    F_32_match; F_128_match; F_source; F_fib; F_pit; F_parm; F_mac; F_mark;
    F_ver; F_dag; F_intent; F_pass; F_cc; F_tel; F_hvf; F_cust;
  ]

let of_int i = List.find_opt (fun k -> to_int k = i) all

let max_key = List.fold_left (fun acc k -> Stdlib.max acc (to_int k)) 0 all

let name = function
  | F_32_match -> "F_32_match"
  | F_128_match -> "F_128_match"
  | F_source -> "F_source"
  | F_fib -> "F_FIB"
  | F_pit -> "F_PIT"
  | F_parm -> "F_parm"
  | F_mac -> "F_MAC"
  | F_mark -> "F_mark"
  | F_ver -> "F_ver"
  | F_dag -> "F_DAG"
  | F_intent -> "F_intent"
  | F_pass -> "F_pass"
  | F_cc -> "F_cc"
  | F_tel -> "F_tel"
  | F_hvf -> "F_hvf"
  | F_cust -> "F_cust"

let description = function
  | F_32_match -> "32-bit address match"
  | F_128_match -> "128-bit address match"
  | F_source -> "source address"
  | F_fib -> "forwarding information base match"
  | F_pit -> "pending interest table match"
  | F_parm -> "load parameters"
  | F_mac -> "calculate MAC"
  | F_mark -> "mark update"
  | F_ver -> "destination verification"
  | F_dag -> "parse the directed acyclic graph"
  | F_intent -> "handle intent"
  | F_pass -> "source label verification"
  | F_cc -> "congestion policing"
  | F_tel -> "in-band telemetry"
  | F_hvf -> "per-hop validation field check"
  | F_cust -> "custody transfer"

let equal a b = a = b
let compare a b = Int.compare (to_int a) (to_int b)

(** Operation keys — Table 1 of the paper.

    Every Field Operation names its behaviour with a small integer
    key; routers match the key against the operation modules
    pre-installed on their dataplane (§4.1: "we pre-write the
    required operation modules on the data plane and use the
    operation key to match these operation modules").

    Keys 1–11 are exactly the paper's Table 1. Key 12 ({i F_pass})
    is the source-label verification operation the paper introduces
    in §2.4 as a dynamically enabled defence against cache-poisoning
    FN combinations. Keys 13–14 are extensions the paper motivates:
    {i F_cc} realizes NetFence-style in-network congestion policing
    (§1), {i F_tel} the in-band telemetry opportunity of §5, and
    {i F_hvf} the EPIC hop-validation check (§1 names EPIC beside
    OPT). Key 16 ({i F_cust}) realizes DTN-style custody transfer as
    an ignorable FN (§2.4): supporting routers take custody of the
    packet and ACK hop-by-hop; others forward it untouched. *)

type t =
  | F_32_match   (** 1 — 32-bit address match *)
  | F_128_match  (** 2 — 128-bit address match *)
  | F_source     (** 3 — source address *)
  | F_fib        (** 4 — forwarding information base match *)
  | F_pit        (** 5 — pending interest table match *)
  | F_parm       (** 6 — load parameters *)
  | F_mac        (** 7 — calculate MAC *)
  | F_mark       (** 8 — mark update *)
  | F_ver        (** 9 — destination verification *)
  | F_dag        (** 10 — parse the directed acyclic graph *)
  | F_intent     (** 11 — handle intent *)
  | F_pass       (** 12 — source label verification (§2.4) *)
  | F_cc         (** 13 — congestion policing (NetFence-style, §1) *)
  | F_tel        (** 14 — in-band telemetry (§5 opportunities) *)
  | F_hvf        (** 15 — EPIC per-hop validation field check (§1) *)
  | F_cust       (** 16 — DTN-style custody transfer (§2.4 ignorable) *)

val to_int : t -> int
val of_int : int -> t option
val all : t list
(** In key order. *)

val max_key : int
(** The largest {!to_int} value — sizes key-indexed dense arrays
    (e.g. the {!Obs} per-opkey tallies). *)

val name : t -> string
(** The paper's notation, e.g. ["F_FIB"]. *)

val description : t -> string
(** The Table 1 operation column, e.g.
    ["forwarding information base match"]. *)

val equal : t -> t -> bool
val compare : t -> t -> int

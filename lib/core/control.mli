(** The operator control plane: runtime FN management.

    §5 (Opportunities): "the network providers can now support new
    services by only upgrading FNs, instead of replacing the
    underlying hardware", and §2.4: security policies like
    {i F_pass} "can be enabled on the fly upon detecting content
    poisoning attacks". This module is the mechanism: authenticated,
    replay-protected control packets that a router applies to its own
    registry and environment — the limited form of runtime
    programmability the paper positions DIP as (§1, §6).

    A command packet is a DIP packet with the control next-header,
    carrying [seq ∥ command ∥ MAC]; the MAC is keyed with the
    operator's controller key and the sequence number must strictly
    increase, so captured commands cannot be replayed. *)

type command =
  | Enable_op of Opkey.t
      (** (re-)install an operation module from the node's master
          image — "upgrading FNs" without replacing hardware *)
  | Disable_op of Opkey.t
  | Enable_pass of string  (** 16-byte AS label key (§2.4) *)
  | Disable_pass
  | Policer_mode_mark
  | Policer_mode_police  (** NetFence attack mode *)

val pp_command : Format.formatter -> command -> unit

val is_control : Dip_bitbuf.Bitbuf.t -> bool

val encode : key:Dip_crypto.Prf.key -> seq:int64 -> command -> Dip_bitbuf.Bitbuf.t
(** Build an authenticated command packet. *)

type state
(** Per-router anti-replay state. *)

val initial_state : unit -> state

val apply :
  key:Dip_crypto.Prf.key ->
  state:state ->
  env:Env.t ->
  registry:Registry.t ->
  master:Registry.t ->
  Dip_bitbuf.Bitbuf.t ->
  (command, string) result
(** Verify, check freshness, and execute a command against this
    node's registry/environment. [master] is the full operation-module
    image [Enable_op] installs from. *)

val handler :
  key:Dip_crypto.Prf.key ->
  env:Env.t ->
  registry:Registry.t ->
  master:Registry.t ->
  Dip_netsim.Sim.handler ->
  Dip_netsim.Sim.handler
(** Wrap a node handler: control packets are intercepted and applied
    (consumed on success, dropped with a reason otherwise); everything
    else passes through. *)

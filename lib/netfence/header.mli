(** The NetFence congestion header region.

    NetFence "inserts a slim customized header between L3 and L4"
    (paper §1). In the DIP realization this header lives in the FN
    locations region and is the target of the {i F_cc} operation.
    Layout (168 bits = 21 bytes):

    {v
    bits [  0, 32)  sender id
    bits [ 32, 64)  allowed rate (bytes/second, truncated)
    bits [ 64, 72)  congestion flag (see {!flag})
    bits [ 72,104)  timestamp (units chosen by the deployment)
    bits [104,168)  feedback MAC (64-bit, keyed by the bottleneck)
    v}

    The MAC covers sender id ∥ flag ∥ timestamp under the bottleneck
    router's secret, so a sender cannot forge "no congestion"
    feedback — the property NetFence needs for open networks. *)

type flag = No_congestion | Congestion | Attack

val size_bytes : int
(** 21. *)

val size_bits : int
(** 168. *)

(** Accessors at byte offset [base] in a packet buffer. *)

val get_sender : Dip_bitbuf.Bitbuf.t -> base:int -> int32
val set_sender : Dip_bitbuf.Bitbuf.t -> base:int -> int32 -> unit
val get_rate : Dip_bitbuf.Bitbuf.t -> base:int -> float
val get_flag : Dip_bitbuf.Bitbuf.t -> base:int -> flag option
val set_flag : Dip_bitbuf.Bitbuf.t -> base:int -> flag -> unit
val get_timestamp : Dip_bitbuf.Bitbuf.t -> base:int -> int32

type key
(** A bottleneck's feedback key: its secret's {!Dip_crypto.Prf.frame}
    under the feedback label, and a tag buffer. Every {!stamp} and
    {!verify} writes it, allocating nothing: a domain needs its
    own. *)

val key : Dip_crypto.Prf.key -> key

val stamp : key:key -> Dip_bitbuf.Bitbuf.t -> base:int -> unit
(** Write the feedback MAC field: a MAC over (sender, flag,
    timestamp) with the router's secret. Raises [Invalid_argument]
    if the region does not fit in the buffer. *)

val verify : key:key -> Dip_bitbuf.Bitbuf.t -> base:int -> bool
(** Check the MAC field against the current header contents. *)

val init :
  Dip_bitbuf.Bitbuf.t ->
  base:int ->
  sender:int32 ->
  rate:float ->
  timestamp:int32 ->
  unit
(** Sender-side initialization: no-congestion flag, zero MAC. *)

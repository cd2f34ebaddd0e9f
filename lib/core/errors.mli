(** FN-unsupported notifications — DIP's ICMP analogue.

    §2.4: "the inbound router may receive a DIP packet carrying an FN
    that the AS has not supported yet. If this FN requires all
    on-path ASes to participate (e.g., the FN designed for path
    authentication), the router should return an FN unsupported
    message to notify the source through a mechanism similar to
    ICMP."

    The notification is itself a DIP packet whose next-header value
    marks it as control traffic; the payload names the offending
    operation key and echoes the first bytes of the rejected
    packet. *)

val integrity_reason : string
(** The drop reason ["integrity-check-failed"] shared by every
    checksum-guarded receive path (see {!Host.Reliable}), so corrupted
    packets are distinguishable from policy drops in the counters. *)

val fn_unsupported :
  key:Opkey.t -> rejected:Dip_bitbuf.Bitbuf.t -> Dip_bitbuf.Bitbuf.t
(** Build the notification for a packet we refused. *)

type t = { key : Opkey.t; echo : string }

val parse : Dip_bitbuf.Bitbuf.t -> (t, string) result
(** Recognize and decode a notification; [Error] if the packet is
    not one. *)

val is_control : Dip_bitbuf.Bitbuf.t -> bool

(** DRKey-style dynamic key derivation for OPT.

    In OPT, "after receiving a packet, the router will derive a
    dynamic key from the session ID in the packet header with its
    local key. Then the router uses the dynamic key, which is shared
    with the host, to recalculate and update the tags" (paper §3).

    Each router holds a long-term local secret; the per-session key
    is [PRF(local_secret, session_id)]. During session setup the
    source obtains the same session keys (the paper's "key
    negotiation process"), which we model with {!session_keys} — the
    trust structure is identical, only the key-exchange transport is
    elided (see DESIGN.md §2). *)

type secret = Dip_crypto.Prf.key
(** A router's long-term local secret: a PRF key, so protocols that
    key on other inputs (EPIC derives per (source, timestamp)) derive
    under their own label from the same secret. *)

val secret_of_string : string -> secret
(** 16 bytes. Raises [Invalid_argument] otherwise. *)

val secret_gen : Dip_stdext.Prng.t -> secret
(** A fresh random secret (for simulations). *)

type session_key = string
(** A derived 16-byte per-session key. *)

val derive : secret -> session_id:int64 -> session_key
(** The dynamic key a router computes on the fast path. *)

val session_frame : secret -> Dip_crypto.Prf.frame
(** The frame {!derive} uses: a router builds it once with its
    secret, and {!Dip_crypto.Prf.derive_into} over the session id's 8
    big-endian bytes then writes the session key in place. *)

val session_keys : secret list -> session_id:int64 -> session_key list
(** What the source learns at session setup: the session key of every
    on-path node, in path order. *)

(** EPIC source/router/destination operations.

    Key structure mirrors OPT's DRKey usage, but the key is derived
    per (source, timestamp) rather than per negotiated session — EPIC
    needs no per-flow setup. With [mac] the 128-bit CBC-MAC and
    [trunc32] its first 32 bits:

    - key:      [k_i = PRF(secret_i, src ∥ timestamp)]
    - source:   [hvf_i = trunc32 (mac k_i origin)] for every hop,
                where [origin] is bits [0,192) of the region;
    - router i: check [hvf_i]; {e drop on mismatch} ("every packet is
                checked"); on success replace it with the verified
                form [hvf'_i = trunc32 (mac k_i ("fwd" ∥ hvf_i))];
    - dest:     confirm every HVF is in verified form (proves the
                packet traversed — and was checked by — each hop).

    All functions operate on a region at byte offset [base]. *)

val derive_key :
  Dip_opt.Drkey.secret -> src:int32 -> timestamp:int32 -> Dip_opt.Drkey.session_key
(** The hop key a router computes on the fly from its local secret. *)

val hop_frame : Dip_opt.Drkey.secret -> Dip_crypto.Prf.frame
(** The frame {!derive_key} uses: a router builds it once with its
    secret, and {!Dip_crypto.Prf.derive_into} over the region's first
    8 bytes (source ∥ timestamp) then writes the hop key in place. *)

val source_init :
  Dip_bitbuf.Bitbuf.t ->
  base:int ->
  src:int32 ->
  timestamp:int32 ->
  hop_keys:Dip_opt.Drkey.session_key list ->
  payload:string ->
  unit
(** Fill the region and compute every hop's HVF (the source holds the
    hop keys via DRKey, as in OPT). *)

type router_verdict = Forwarded | Rejected

val router_check :
  Dip_crypto.Mac2em.key -> Bytes.t -> Dip_bitbuf.Bitbuf.t -> base:int -> hop:int -> router_verdict
(** [router_check k tmp buf ~base ~hop] verifies and updates hop
    [hop]'s HVF under the expanded hop key [k], with [tmp] a 16-byte
    scratch buffer both MACs write, and allocates nothing. [Rejected]
    means the router must drop the packet. The origin MAC reads its
    bits straight from the buffer, and the HVF is compared and
    rewritten in place. Raises [Invalid_argument] if [hop < 1] or the
    HVF is outside [buf]. *)

val verify_delivery :
  Dip_bitbuf.Bitbuf.t ->
  base:int ->
  hop_keys:Dip_opt.Drkey.session_key list ->
  payload:string option ->
  (unit, int) result
(** Destination check: every HVF must be in verified form (and the
    payload hash must match, when given — payload failures report hop
    0). [Error i] names the first offending hop. Each hop key is
    expanded once for both of its MACs. *)

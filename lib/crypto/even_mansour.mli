(** 2EM — the two-round Even–Mansour cipher.

    The paper's prototype computes its MAC with 2EM [2] "since 2EM is
    more friendly to Barefoot Tofino and can be completed without
    resubmitting the packet, while the AES needs to resubmit the
    packet" (§4.1). The construction is

    {v E_k(x) = P(P(x ⊕ k1) ⊕ k2) ⊕ k3 v}

    with {i P} the public permutation from {!Arx_perm} and the three
    128-bit round keys derived from a 16-byte master key. Key
    alternation with two permutation calls is provably secure up to
    ~2^(2n/3) queries (Bogdanov et al., EUROCRYPT 2012). *)

include Block.S with type key = private Bytes.t
(** A key is its three 16-byte round keys back to back (k1, k2, k3);
    {!Mac2em} reads them. *)

val expand_key_into : Bytes.t -> key -> unit
(** [expand_key_into raw k] rewrites [k] in place with the schedule
    of the 16-byte key [raw], allocating nothing: {!expand_key} is a
    fresh schedule run through it. Raises [Invalid_argument] unless
    [raw] is 16 bytes. *)

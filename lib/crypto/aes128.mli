(** AES-128 (FIPS-197), implemented from first principles.

    The paper's §4.1 notes that AES "needs to resubmit the packet" on
    Tofino, which is why the prototype preferred 2EM. We implement
    AES anyway so the MAC-cipher ablation (DESIGN.md, experiment A2)
    can quantify that trade-off: the PISA model charges {!passes} > 1
    pipeline passes per AES block.

    The S-box is derived at start-up from the GF(2^8) inverse plus
    the FIPS affine transform rather than pasted in as a table, and
    the implementation is validated against the FIPS-197 known-answer
    vector in the test suite. *)

include Block.S

val expand_into : Bytes.t -> key -> unit
(** [expand_into raw k] rewrites the 176-byte schedule [k] in place
    for the 16-byte key [raw], allocating nothing: {!expand_key} is a
    fresh schedule run through it. Raises [Invalid_argument] unless
    [raw] is 16 bytes. *)

(** Synthetic workload generators.

    The paper evaluates with fixed-size packets (128, 768 and 1500
    bytes, §4.2); richer experiments in this repository additionally
    use routing-table prefixes, flows and Zipf-distributed content
    popularity.
    Every generator is deterministic in its seed. *)

val paper_packet_sizes : int list
(** The three sizes of Figure 2: [\[128; 768; 1500\]]. *)

val satellite_passes :
  ?jitter:float ->
  ?seed:int64 ->
  period:float ->
  pass:float ->
  horizon:float ->
  unit ->
  (float * float) list
(** A satellite-pass / mobile contact schedule for one link: contact
    windows of length [pass] begin at [k*period] (plus a
    seeded uniform draw in [\[0, jitter)] per pass when [jitter] is
    set); the link is {e down} outside them. Returns the down
    windows covering [\[0, horizon)], in order, ready for
    {!Faults.link_down}. Requires [0 < pass < period],
    [jitter < period - pass]. Deterministic in [seed]. *)

val v4_prefixes :
  seed:int64 -> count:int -> (Dip_tables.Ipaddr.V4.t * int) array
(** [count] distinct IPv4 [(address, length)] prefixes drawn from a
    BGP-like prefix-length histogram (≈56% /24, mass at /16–/23, a
    small /25–/32 tail) with uniform random address bits.
    Deterministic in [seed]; host bits below the prefix length are
    zero. *)

val v6_prefixes :
  seed:int64 -> count:int -> (Dip_tables.Ipaddr.V6.t * int) array
(** [count] distinct IPv6 prefixes shaped like the global v6 table
    (registry /32s, customer /48s, a /64 band, a few host routes),
    confined to 2000::/3. Deterministic in [seed]. *)

val v4_traffic :
  seed:int64 ->
  prefixes:(Dip_tables.Ipaddr.V4.t * int) array ->
  flows:int ->
  packets:int ->
  skew:float ->
  Dip_tables.Ipaddr.V4.t array
(** A destination-address stream of exactly [packets] packets over
    [flows] distinct flows. Each flow targets a fixed host inside a
    Zipf([skew])-popular prefix of [prefixes]; per-flow packet counts
    are heavy-tailed (Pareto, α = 1.2) and the stream is shuffled so
    flows interleave. Every destination matches some table entry, so
    a FIB benchmark driven by this stream measures hit-path lookup
    cost. Deterministic in [seed]. *)

val zipf_names :
  seed:int64 -> catalog:int -> count:int -> skew:float -> Dip_tables.Name.t list
(** [count] content names drawn from a [catalog]-item corpus
    ["/content/item<k>"] with Zipf(skew) popularity — the standard
    NDN request model. *)

val catalog_name : int -> Dip_tables.Name.t
(** The canonical name of catalog item [k]. *)

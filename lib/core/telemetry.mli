(** The in-band telemetry region targeted by {i F_tel} (key 14).

    §5 lists "efficient network telemetry" among the opportunities
    DIP opens; this module is that opportunity realized in the style
    of INT: each on-path router appends a fixed 8-byte record to a
    region the sender pre-allocates in the FN locations.

    Layout: 1 byte [overflow(1) | hop count(7)], then [hop count]
    records of

    {v node id (16) | timestamp (32) | queue depth (16) v}

    When the region cannot hold another record the router sets the
    overflow bit instead — telemetry must never grow the packet or
    block forwarding. *)

type record = { node_id : int; timestamp : int32; queue_depth : int }

val region_size : max_hops:int -> int
(** Bytes to pre-allocate: [1 + 8·max_hops]. *)

val init : Dip_bitbuf.Bitbuf.t -> base:int -> unit
(** Zero the count and overflow bits. *)

val capacity : region_bytes:int -> int
(** Records that fit in a region of the given size. *)

val write :
  Dip_bitbuf.Bitbuf.t ->
  base:int ->
  region_bytes:int ->
  node_id:int ->
  timestamp:int ->
  queue_depth:int ->
  bool
(** Append one record from its fields, with byte stores that
    allocate nothing: the low 16 bits of [node_id] and [queue_depth],
    the low 32 bits of [timestamp]. [false] (and the overflow bit)
    when full. This is {i F_tel}'s write. *)

val append :
  Dip_bitbuf.Bitbuf.t -> base:int -> region_bytes:int -> record -> bool
(** {!write} of a record. *)

val read : Dip_bitbuf.Bitbuf.t -> base:int -> region_bytes:int -> record list * bool
(** All records in path order, plus the overflow flag. *)

(** A store-and-forward Ethernet switch with per-port egress queues.

    Each port attaches to one station of an {!Ether.Link} (the mlnet
    attach/detach idiom: attaching registers the switch as that station's
    receive handler).  Forwarding consults a static table installed by the
    fabric, or — in learning mode — a table learned from source addresses,
    flooding unknown destinations.  Egress is serialized per port through a
    [busy_until] exactly like the LANCE's transmit path.  Every drop goes
    through {!Sim.drop} on {!Protolat_obs.Span.host_wire}, as a LANCE rx
    overrun does on its host's code, so conservation laws hold on the
    forwarding path.

    Counters (under a ["switch"] scope of [metrics]): [frames_in],
    [frames_out], [queue_drops], [unknown_drops], [partition_drops],
    [flood_copies], and a [queue_peak] gauge.  At quiesce,
    [frames_in + flood_copies
     = frames_out + queue_drops + unknown_drops + partition_drops]. *)

type t

val create :
  Sim.t ->
  ports:int ->
  ?latency_us:float ->
  ?queue_frames:int ->
  ?learning:bool ->
  ?metrics:Protolat_obs.Metrics.t ->
  unit ->
  t

val ports : t -> int

val attach : t -> port:int -> station:int -> Ether.Link.t -> unit
(** Connect [port] to [station] of [link] and start receiving from it.
    @raise Invalid_argument if the port is out of range or in use. *)

val detach : t -> port:int -> unit
(** Disconnect the port: its link station stops delivering to the switch
    and frames routed to the port are dropped (as partition drops). *)

val add_static : t -> mac:int -> port:int -> unit

val forget : t -> mac:int -> unit

val lookup : t -> mac:int -> int option

val set_partition : t -> port:int -> bool -> unit
(** Partition a port: frames arriving on it and frames routed out of it
    are dropped (recorded as [partition_drops]) until the partition lifts.
    @raise Invalid_argument if nothing is attached to the port. *)

val partitioned : t -> port:int -> bool

val queue_depth : t -> port:int -> int

val in_flight : t -> int
(** Frames accepted but not yet handed to an egress link. *)

val queue_peak : t -> int

val frames_in : t -> int

val frames_out : t -> int

val queue_drops : t -> int

val unknown_drops : t -> int

val partition_drops : t -> int

val flood_copies : t -> int

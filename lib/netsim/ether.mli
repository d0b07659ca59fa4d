(** 10 Mb/s Ethernet wire model (§4.3).

    A minimum frame is 64 bytes, preceded by an 8-byte preamble; at
    10 Mb/s the minimum frame occupies the wire for 57.6 µs. *)

val min_frame_bytes : int

val preamble_bytes : int

val bits_per_second : float

val header_bytes : int
(** dst(6) + src(6) + ethertype(2) *)

val frame_bytes : int -> int
(** On-the-wire frame size for a payload of the given length (header +
    payload, padded to the minimum). *)

val tx_time_us : int -> float
(** Serialization time (including preamble) for a payload length. *)

type frame = {
  dst : int;
  src : int;
  ethertype : int;
  payload : bytes;
}

(** A point-to-point isolated segment between two stations (0 and 1). *)
module Link : sig
  type t

  val create :
    Sim.t -> ?propagation_us:float -> ?metrics:Protolat_obs.Metrics.t ->
    unit -> t
  (** [metrics] hosts the link's [frames_sent]/[frames_dropped] counters
      (callers pass a scoped view, e.g. ["link."]); defaults to a fresh
      private registry. *)

  val attach : t -> station:int -> (frame -> unit) -> unit
  (** Register the receive handler of a station.
      @raise Invalid_argument for stations other than 0 or 1. *)

  val set_span_hosts : t -> station0:int -> station1:int -> unit
  (** Host codes carried by each station's span marks (default: the
      station indices, the classic two-host convention).  {!Fabric.create}
      sets the attached host's code on one side and
      {!Protolat_obs.Span.host_wire} on the switch side, which makes a hop
      re-enter the wire stage. *)

  val set_remote : t -> station:int -> (at:float -> frame -> unit) -> unit
  (** Declare a station remote: frames addressed to it are handed to the
      sink with their absolute arrival time instead of being scheduled on
      this link's simulator.  Used by the sharded fabric for deterministic
      time-stepped cross-shard exchange; a remote delivery records no frame
      span and no rx-interrupt mark. *)

  val inject : t -> station:int -> at:float -> frame -> unit
  (** Schedule a frame for delivery to [station]'s handler at absolute time
      [at] — the receiving half of {!set_remote}.
      @raise Invalid_argument if [at] is in the receiving simulator's
      past. *)

  val transmit : t -> station:int -> frame -> unit
  (** Put a frame on the wire; it is delivered to the other station after
      serialization + propagation time.  When the simulator records, the
      frame is an async span on the wire's thread
      ({!Protolat_obs.Span.host_wire}) from transmit to delivery, and
      corruptions and duplications are instants there; the span ledger
      marks the wire stage at transmit and the rx-interrupt stage at
      delivery.  A lost frame goes through {!Sim.drop} as [drop]. *)

  val set_filter : t -> (frame -> bool) -> unit
  (** Install a targeted drop predicate (frames for which it returns
      [true] are dropped after serialization).  Meant for deterministic
      drop-exactly-this-frame tests; for statistical impairment use
      {!set_fault} with a seeded {!Fault.t} plan instead.  The predicate
      composes with the fault plan: it is consulted first. *)

  val set_fault : t -> Fault.t option -> unit
  (** Install a seeded fault plan applied per frame at transmit time:
      loss and burst loss drop the frame; corruption flips one bit in a
      copy of the payload; duplication delivers the frame twice;
      reordering/jitter add bounded extra delivery delay. *)

  val fault : t -> Fault.t option

  val frames_sent : t -> int

  val frames_dropped : t -> int
end

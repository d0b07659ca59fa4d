(** AMD Am7990 LANCE Ethernet controller model.

    The paper's DEC 3000/600 uses a LANCE on the TURBOchannel.  Two
    properties matter for the study:

    - descriptor rings live in {e sparse} shared memory (§2.2.4), and the
      driver can update descriptors either by the traditional
      copy-in/modify/copy-out ([Copy] mode) or with USC-generated direct
      accessors ([Usc_direct] mode, saving 171 instructions per packet);
    - the controller is slow: ≈47 µs of controller overhead plus 57.6 µs of
      wire time for a minimum frame, i.e. ≈105 µs between handing a frame
      to the controller and the transmit-complete interrupt (§4.3). *)

type mode =
  | Copy
  | Usc_direct

type t

val create :
  Sim.t ->
  Protolat_xkernel.Simmem.t ->
  Ether.Link.t ->
  station:int ->
  ?host:int ->
  ?mode:mode ->
  ?metrics:Protolat_obs.Metrics.t ->
  unit ->
  t
(** [host] is the device's host code: the tracer thread of its instants
    (frame handoffs [lance_tx], rx DMAs [lance_rx], injected [tx_stall]s)
    and the host of its drops.  It defaults to [station], the two-host
    convention; a switched fabric puts every LANCE at station 0 of its own
    segment, so fabric hosts pass their index.  [metrics] hosts the device
    counters ([lance.frames_tx], [.frames_rx], [.rx_missed], [.tx_stalls],
    [.down_drops]); defaults to a fresh private registry. *)

val set_handlers :
  t -> on_tx_complete:(unit -> unit) -> on_receive:(Ether.frame -> unit) -> unit

val mode : t -> mode

val transmit : t -> Ether.frame -> unit
(** Hand a frame to the controller: the driver fills the next transmit
    descriptor (through the configured access mode, exercising the sparse
    memory), and the controller raises [on_tx_complete] after
    [controller_overhead + serialization] and delivers the frame to the
    peer station.
    @raise Invalid_argument if the transmit ring is full — callers must
    check {!tx_ring_full} first and queue the frame until the next
    transmit-complete interrupt. *)

val tx_ring_full : t -> bool
(** All 16 transmit descriptors are owned by the controller. *)

val set_fault : t -> Fault.t option -> unit
(** Install a device fault plan: transmit stalls delay the controller
    pickup (so descriptors stay owned longer and the ring can fill), and
    rx overruns drop incoming frames before a descriptor is filled,
    latching a MISS condition for {!consume_rx_missed}. *)

val set_power : t -> bool -> unit
(** Power the controller up or down.  While down (a crashed host) every
    incoming frame and every straggling transmit is dropped through
    {!Sim.drop} as [down_drop]; no DMA happens and no interrupt fires.
    Powering back up does not replay anything — lost frames stay lost. *)

val powered : t -> bool

val down_drops : t -> int
(** Frames dropped because the controller was powered down. *)

val stall : t -> us:float -> unit
(** Hold the transmit path busy for a further [us] microseconds from now
    (or from the end of the current transmission, whichever is later) —
    models a cache-pressure / DMA-contention event stealing the
    controller's cycles.
    @raise Invalid_argument if [us] is negative or not finite. *)

val consume_rx_missed : t -> bool
(** Whether an rx-descriptor overrun happened since the last call; reading
    clears the latch (the driver checks this in its receive interrupt). *)

val rx_missed_total : t -> int

val tx_descriptor_rings : t -> Sparse_mem.t
(** The shared descriptor memory (transmit ring followed by receive ring) —
    exposed so tests can check the access counts of the two modes. *)

val words_touched_per_tx_update : mode -> int
(** Descriptor words read+written per transmit-descriptor update. *)

val frames_transmitted : t -> int

val frames_received : t -> int

val tx_complete_latency_us : t -> int -> float
(** Time from [transmit] to the transmit-complete interrupt for a payload
    of the given length (≈105 µs for a minimum frame). *)

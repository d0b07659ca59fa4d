(** Per-message latency provenance: an allocation-free span ledger recording
    the stage boundaries of every round-trip message (app → send-side
    protocol → NIC tx queue → wire → rx interrupt → receive-side protocol →
    app and back), with retransmissions as extra generations of the same
    message.  Marks read the simulator clock and write SoA arrays only, so
    recording cannot perturb the simulation: results with spans on are
    bit-identical to spans off.  The extractor's per-stage durations fold
    (left to right, in float) bit-exactly to the measured RTT. *)

type t

val null : t
(** Disabled ledger: every operation is a no-op.  Shareable. *)

val create : clock:float array -> unit -> t
(** A live ledger reading timestamps from [clock.(0)]
    (pass {!Ns.Sim.clock_cell}). *)

val enabled : t -> bool

(** {2 Stage and host codes} *)

val stage_app : int
val stage_tx_proto : int
val stage_tx_queue : int
val stage_wire : int
val stage_rx_intr : int
val stage_rx_proto : int
val stage_rto_wait : int

val stage_switch : int
(** Fabric residency: store-and-forward latency plus egress queueing inside
    a switch.  A multi-hop path telescopes into wire/switch/wire/...
    segments; on the direct point-to-point link the stage never appears. *)

val n_stages : int

val stage_name : int -> string

val host_client : int
val host_server : int
val host_wire : int
val n_hosts : int

val host_name : int -> string

(** {2 Recording} *)

val begin_run : t -> at:float -> unit
(** Open the first message at time [at] (the engine's RTT origin). *)

val roll : t -> at:float -> measured:bool -> unit
(** Close the current message at [at] — flagging whether the engine counted
    its RTT — and open the next one at the same instant.  Call with exactly
    the clock value used for the RTT subtraction. *)

val mark_tx_proto : t -> host:int -> unit
val mark_tx_queue : t -> host:int -> unit

val mark_wire : t -> ?rx:int -> station:int -> unit -> unit
(** [station]/[rx] are the span host codes of the transmitting and receiving
    side of the hop; [rx] defaults to [1 - station] (the two-station link
    convention).  A transmit whose receiving side is {!host_wire} hands the
    message to a switch: the subsequent delivery opens the switch stage
    instead of rx-interrupt. *)

val mark_rx_intr : t -> host:int -> unit
val mark_rx_proto : t -> host:int -> unit
val mark_app : t -> host:int -> unit
val mark_drop : t -> host:int -> unit
(** Stage-boundary marks.  Each is accepted only when it continues the
    current message's critical path on the expected host; marks from
    off-path frames (acks, duplicates, nacks) are ignored. *)

val retry : t -> host:int -> unit
(** A retransmission of the in-flight message: bumps the generation and
    returns the ledger to send-side protocol processing on [host]. *)

(** {2 Extraction} *)

type seg = {
  stage : int;
  host : int;
  gen : int;
  t0_us : float;
  dur_us : float;
}

type message = {
  id : int;
  start_us : float;
  finish_us : float;
  total_us : float;  (** [finish_us -. start_us] — bitwise the engine RTT *)
  generations : int;  (** 1 + retransmissions recorded for this message *)
  segs : seg array;
}

val messages : t -> message array
(** Measured messages in round-trip order.  Each message's [dur_us] values
    fold left-to-right (float [+.]) bit-exactly to [total_us]. *)

val conserved : message array -> rtts:float list -> (unit, string) result
(** Check the conservation law against the engine's measured RTTs (in
    round-trip order): per message, the stage-duration fold and [total_us]
    must both equal the RTT bit-exactly. *)

type budget = {
  messages : int;
  mean_rtt_us : float;
  stage_us : float array;  (** per stage, summed across messages *)
  host_stage_us : float array array;  (** indexed [host].[stage] *)
  extra_generations : int;
}

val budget : message array -> budget

(** Discrete-event simulation engine.  Time is in microseconds.

    The simulator also owns the run's two recorders, the timeline tracer
    and the span ledger; both read {!clock_cell}.  Every emitter (hosts,
    LANCEs, links, switches) reaches them through the [Sim.t] it already
    holds, under its host code: {!Protolat_obs.Span.host_client} (0),
    {!Protolat_obs.Span.host_server} (1) or {!Protolat_obs.Span.host_wire}
    (2) for links and switches.  The same code is the emitter's tracer
    thread id and the host of its span marks.

    Pending positions, (time, sequence number), live in the simulator's
    own queue of events and in the timer managers of its hosts
    ({!timers}).  One sequence counter numbers all of them, so they are
    totally ordered, and {!run}, {!step}, {!pending} and {!next_at} treat
    them as one queue: a timer's position is the place a separately
    scheduled wake-up for it would have had. *)

type t

val create : unit -> t
(** A simulator at time 0 that records nothing. *)

val timers : t -> Protolat_xkernel.Event.t
(** A fresh timer manager numbering its positions from this simulator's
    counter, whose positions the simulator passes as events (see
    {!Protolat_xkernel.Event.consume}).  One per host.  The simulator
    keeps its managers' earliest positions in a winner tree that each
    manager updates when its earliest position changes, so choosing an
    event costs the same at any number of hosts (an incast shard holds up
    to 128) and a change costs one match per level. *)

val record : t -> events:bool -> spans:bool -> unit
(** Switch recording on, once per simulation: [events] gives the run a
    live timeline tracer, [spans] a live span ledger.  Recording never
    perturbs the simulation. *)

val tracer : t -> Protolat_obs.Tracer.t
(** The run's tracer ({!Protolat_obs.Tracer.null} unless recording). *)

val spans : t -> Protolat_obs.Span.t
(** The run's span ledger ({!Protolat_obs.Span.null} unless recording). *)

val instant : t -> tid:int -> cat:string -> name:string -> a0:int -> unit
(** A tracer instant on thread [tid] (one branch when untraced). *)

val drop :
  t -> Protolat_obs.Metrics.counter -> host:int -> cat:string ->
  name:string -> a0:int -> unit
(** A frame dropped by the component with host code [host]: bump
    [counter], mark the span ledger's drop, then emit the instant [name]
    on thread [host] — in that order, on every channel at once. *)

val now : t -> float

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** @raise Invalid_argument on negative delay. *)

val schedule_at : t -> at:float -> (unit -> unit) -> unit
(** @raise Invalid_argument if [at] is in the past. *)

val step : t -> bool
(** Process the next event (a queued event or a timer position); [false]
    when nothing is pending. *)

val run : ?until:float -> t -> int
(** Process events in time order until nothing is pending (or the next
    event is after [until]); returns the number processed, a timer
    position counting as one event.  Events at equal times run in
    scheduling order.

    The loop reads the queue's top and the earliest manager's position in
    place from their one-cell arrays ({!Protolat_util.Heap.top_cell} and
    [top_seq_cell], {!Protolat_xkernel.Event.head_cell} and
    [head_seq_cell]), so choosing an event calls nothing and allocates
    nothing: no boxed time, no option, no tuple. *)

val advance_clock : t -> float -> unit
(** Model computation time: move the clock forward by the given amount
    (events due in between remain pending until [run]/[step]). *)

val clock_cell : t -> float array
(** The 1-element cell backing {!now}.  Exposed so a caller charging time
    once per simulated instruction can bump the clock without a float
    crossing a call boundary (which would box it); treat as write-only
    accumulation, never replace the array. *)

val pending : t -> int
(** Queued events plus every manager's pending positions. *)

val next_at : t -> float option
(** Time of the earliest pending event, if any.  The sharded fabric uses
    this to pick each epoch's global barrier. *)

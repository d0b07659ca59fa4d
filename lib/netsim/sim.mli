(** Discrete-event simulation engine.  Time is in microseconds.

    The simulator also owns the run's two recorders, the timeline tracer
    and the span ledger; both read {!clock_cell}.  Every emitter (hosts,
    LANCEs, links, switches) reaches them through the [Sim.t] it already
    holds, under its host code: {!Protolat_obs.Span.host_client} (0),
    {!Protolat_obs.Span.host_server} (1) or {!Protolat_obs.Span.host_wire}
    (2) for links and switches.  The same code is the emitter's tracer
    thread id and the host of its span marks. *)

type t

val create : unit -> t
(** A simulator at time 0 that records nothing. *)

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
(** Process the next event; [false] when the queue is empty. *)

val run : ?until:float -> t -> int
(** Process events in time order until the queue is empty (or the next
    event is after [until]); returns the number processed.  Events at
    equal times run in scheduling order.

    The loop peeks the queue with {!Protolat_util.Heap.top_prio} and takes
    the event with {!Protolat_util.Heap.pop_top}, so dispatching an event
    allocates only the boxed time of the peek: no option, no tuple, no
    heap entry. *)

val advance_clock : t -> float -> unit
(** Model computation time: move the clock forward by the given amount
    (events due in between remain pending until [run]/[step]). *)

val clock_cell : t -> float array
(** The 1-element cell backing {!now}.  Exposed so a caller charging time
    once per simulated instruction can bump the clock without a float
    crossing a call boundary (which would box it); treat as write-only
    accumulation, never replace the array. *)

val pending : t -> int

val next_at : t -> float option
(** Time of the earliest pending event, if any.  The sharded fabric uses
    this to pick each epoch's global barrier. *)

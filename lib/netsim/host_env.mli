(** Per-host runtime environment shared by all protocol modules: simulated
    clock and memory, the instrumentation meter, the metrics registry, the
    host code under which it records into the simulator's tracer and span
    ledger, the timer manager, and the continuation scheduler with its
    LIFO stack pool.

    [run_phase] is installed by the execution engine: it brackets each burst
    of protocol processing (a send initiation, a receive interrupt) so the
    engine can charge modeled CPU time to the simulated clock and account
    the untraced interrupt/context-switch overhead.  The default simply runs
    the work. *)

module Xk = Protolat_xkernel
module Obs = Protolat_obs

type t = {
  sim : Sim.t;
  simmem : Xk.Simmem.t;
  mutable meter : Xk.Meter.t;
  events : Xk.Event.t;
  stack_pool : Xk.Thread.Stack_pool.t;
  sched : Xk.Thread.t;
  mutable run_phase : string -> (unit -> unit) -> unit;
  metrics : Obs.Metrics.t;  (** host-scoped registry (e.g. ["client."]) *)
  host : int;
      (** host code: the tracer thread of this host's events and the host
          of its span marks ({!Obs.Span.host_client} or
          {!Obs.Span.host_server}) *)
  mutable timer_scale : float;
      (** clock-skew model: factor applied to every [timeout] delay *)
}

val create :
  Sim.t -> ?host:int -> ?meter:Xk.Meter.t -> ?metrics:Obs.Metrics.t ->
  ?simmem_base:int -> unit -> t
(** [host] is the host code (default 0, the client); [metrics] defaults to
    a fresh private registry so hosts created outside the engine (unit
    tests, ad-hoc sims) need no wiring. *)

val mark : t -> (Obs.Span.t -> host:int -> unit) -> unit
(** [mark t Obs.Span.mark_app]: record a span mark of this host in the
    simulator's ledger (no-op unless it records spans). *)

val trace_instant : t -> cat:string -> name:string -> a0:int -> unit
(** Emit an instant event on this host's thread (no-op when untraced). *)

val retry :
  t -> Obs.Metrics.counter -> cat:string -> name:string -> a0:int -> unit
(** A retransmission of the in-flight message by this host: the span
    ledger's retry, then [counter], then the instant [name] — in that
    order, on every channel at once. *)

val phase : t -> string -> (unit -> unit) -> unit
(** [phase t name work]: run [work] under the engine's phase hook. *)

val set_timer_scale : t -> float -> unit
(** Set the clock-skew factor applied to subsequent {!timeout} delays
    (1.0 = nominal; 1.25 = this host's timers run 25% slow).  Already
    armed timers keep their original firing times.
    @raise Invalid_argument unless the scale is finite and positive. *)

val timer_scale : t -> float

val timeout : t -> delay:float -> (unit -> unit) -> Xk.Event.handle
(** Register a timer event on this host's manager, which the simulator
    passes as one of its event sources ({!Sim.timers}): protocols use this
    so their timeouts run without a polling loop.  When traced, emits
    [timer_arm] now and [timer_fire] when it runs.
    @raise Invalid_argument if the scaled delay puts the deadline in the
    past. *)

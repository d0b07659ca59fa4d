(** Per-host runtime environment shared by all protocol modules: simulated
    clock and memory, the instrumentation meter, the metrics registry, the
    timeline tracer, the timer manager, and the continuation scheduler
    with its LIFO stack pool.

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
  mutable tracer : Obs.Tracer.t;  (** {!Obs.Tracer.null} unless installed *)
  mutable trace_tid : int;  (** Perfetto thread id for this host's events *)
  mutable span : Obs.Span.t;  (** {!Obs.Span.null} unless installed *)
  mutable span_host : int;  (** span host code for this host's marks *)
  mutable timer_scale : float;
      (** clock-skew model: factor applied to every [timeout] delay *)
  wake : unit -> unit;
      (** {!advance_events} on this host: the one wake-up closure every
          {!timeout} schedules, built once at {!create} *)
}

val create :
  Sim.t -> ?meter:Xk.Meter.t -> ?metrics:Obs.Metrics.t -> ?simmem_base:int ->
  unit -> t
(** [metrics] defaults to a fresh private registry so hosts created outside
    the engine (unit tests, ad-hoc sims) need no wiring. *)

val set_tracer : t -> tid:int -> Obs.Tracer.t -> unit
(** Install the shared timeline tracer; this host's events carry [tid]. *)

val set_span : t -> host:int -> Obs.Span.t -> unit
(** Install the shared span ledger; this host's marks carry [host]
    ({!Obs.Span.host_client} or {!Obs.Span.host_server}). *)

val trace_instant : t -> cat:string -> name:string -> a0:int -> unit
(** Emit an instant event on this host's thread (no-op when untraced). *)

val phase : t -> string -> (unit -> unit) -> unit
(** [phase t name work]: run [work] under the engine's phase hook. *)

val advance_events : t -> unit
(** Fire timer events due at the current simulated time. *)

val set_timer_scale : t -> float -> unit
(** Set the clock-skew factor applied to subsequent {!timeout} delays
    (1.0 = nominal; 1.25 = this host's timers run 25% slow).  Already
    armed timers keep their original firing times.
    @raise Invalid_argument unless the scale is finite and positive. *)

val timer_scale : t -> float

val timeout : t -> delay:float -> (unit -> unit) -> Xk.Event.handle
(** Register a timer event and arrange for the simulation to fire it:
    protocols use this so their timeouts run without a polling loop.
    When traced, emits [timer_arm] now and [timer_fire] when it runs. *)

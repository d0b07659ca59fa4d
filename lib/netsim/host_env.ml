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
  metrics : Obs.Metrics.t;
  mutable tracer : Obs.Tracer.t;
  mutable trace_tid : int;
  mutable span : Obs.Span.t;
  mutable span_host : int;
  mutable timer_scale : float;
      (* clock-skew model: every timer delay registered through [timeout]
         is stretched by this factor (1.0 = nominal) *)
  wake : unit -> unit;
      (* fires the timers due now: built once, scheduled by every
         [timeout] *)
}

let advance_events t = ignore (Xk.Event.advance t.events (Sim.now t.sim))

let create sim ?(meter = Xk.Meter.null) ?metrics ?(simmem_base = 0x1000_0000)
    () =
  let simmem = Xk.Simmem.create ~base:simmem_base () in
  let stack_pool = Xk.Thread.Stack_pool.create simmem () in
  let sched = Xk.Thread.create stack_pool in
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let events = Xk.Event.create () in
  let rec t =
    { sim;
      simmem;
      meter;
      events;
      stack_pool;
      sched;
      (* default: run the work, then drain any continuations it unblocked
         (the engine's hook also charges CPU time and interrupt overhead) *)
      run_phase =
        (fun _ work ->
          work ();
          ignore (Xk.Thread.run sched));
      metrics;
      tracer = Obs.Tracer.null;
      trace_tid = 0;
      span = Obs.Span.null;
      span_host = 0;
      timer_scale = 1.0;
      wake = (fun () -> advance_events t) }
  in
  t

let set_tracer t ~tid tracer =
  t.tracer <- tracer;
  t.trace_tid <- tid

let set_span t ~host span =
  t.span <- span;
  t.span_host <- host

let trace_instant t ~cat ~name ~a0 =
  if Obs.Tracer.enabled t.tracer then
    Obs.Tracer.instant t.tracer ~tid:t.trace_tid ~cat ~name ~a0

let phase t name work = t.run_phase name work

let timer_seq = "timer"

let set_timer_scale t s =
  if not (Float.is_finite s) || s <= 0.0 then
    invalid_arg "Host_env.set_timer_scale: scale must be finite and positive";
  t.timer_scale <- s

let timer_scale t = t.timer_scale

let timeout t ~delay fn =
  let at = Sim.now t.sim +. (delay *. t.timer_scale) in
  let fn =
    if Obs.Tracer.enabled t.tracer then begin
      (* round the delay to whole µs for the event arg: it is a label, and
         an int keeps the tracer columns unboxed *)
      Obs.Tracer.instant t.tracer ~tid:t.trace_tid ~cat:timer_seq
        ~name:"timer_arm" ~a0:(int_of_float delay);
      fun () ->
        Obs.Tracer.instant t.tracer ~tid:t.trace_tid ~cat:timer_seq
          ~name:"timer_fire" ~a0:0;
        fn ()
    end
    else fn
  in
  let h = Xk.Event.register t.events ~at fn in
  Sim.schedule_at t.sim ~at t.wake;
  h

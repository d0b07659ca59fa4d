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
  host : int;
  mutable timer_scale : float;
      (* clock-skew model: every timer delay registered through [timeout]
         is stretched by this factor (1.0 = nominal) *)
}

let create sim ?(host = 0) ?(meter = Xk.Meter.null) ?metrics
    ?(simmem_base = 0x1000_0000) () =
  let simmem = Xk.Simmem.create ~base:simmem_base () in
  let stack_pool = Xk.Thread.Stack_pool.create simmem () in
  let sched = Xk.Thread.create stack_pool in
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  { sim;
    simmem;
    meter;
    events = Sim.timers sim;
    stack_pool;
    sched;
    (* default: run the work, then drain any continuations it unblocked
       (the engine's hook also charges CPU time and interrupt overhead) *)
    run_phase =
      (fun _ work ->
        work ();
        ignore (Xk.Thread.run sched));
    metrics;
    host;
    timer_scale = 1.0 }

let mark t f = f (Sim.spans t.sim) ~host:t.host

let trace_instant t ~cat ~name ~a0 =
  Sim.instant t.sim ~tid:t.host ~cat ~name ~a0

let retry t counter ~cat ~name ~a0 =
  mark t Obs.Span.retry;
  Obs.Metrics.inc counter;
  trace_instant t ~cat ~name ~a0

let phase t name work = t.run_phase name work

let timer_seq = "timer"

let set_timer_scale t s =
  if not (Float.is_finite s) || s <= 0.0 then
    invalid_arg "Host_env.set_timer_scale: scale must be finite and positive";
  t.timer_scale <- s

let timer_scale t = t.timer_scale

let timeout t ~delay fn =
  let now = (Sim.clock_cell t.sim).(0) in
  let at = now +. (delay *. t.timer_scale) in
  if at < now then invalid_arg "Host_env.timeout: time in the past";
  let fn =
    if Obs.Tracer.enabled (Sim.tracer t.sim) then begin
      (* round the delay to whole µs for the event arg: it is a label, and
         an int keeps the tracer columns unboxed *)
      trace_instant t ~cat:timer_seq ~name:"timer_arm" ~a0:(int_of_float delay);
      fun () ->
        trace_instant t ~cat:timer_seq ~name:"timer_fire" ~a0:0;
        fn ()
    end
    else fn
  in
  Xk.Event.register t.events ~at fn

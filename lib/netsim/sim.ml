module Heap = Protolat_util.Heap
module Obs = Protolat_obs

(* [now] lives in a 1-element float array: a plain mutable float field in
   this mixed record would be boxed, and the engine advances the clock once
   per modeled instruction — that write must not allocate. *)
type t = {
  now : float array;
  queue : (unit -> unit) Heap.t;
  mutable tracer : Obs.Tracer.t;
  mutable spans : Obs.Span.t;
}

let create () =
  { now = [| 0.0 |];
    queue = Heap.create ();
    tracer = Obs.Tracer.null;
    spans = Obs.Span.null }

let record t ~events ~spans =
  if events then t.tracer <- Obs.Tracer.create ~clock:t.now ();
  if spans then t.spans <- Obs.Span.create ~clock:t.now ()

let tracer t = t.tracer

let spans t = t.spans

let instant t ~tid ~cat ~name ~a0 =
  if Obs.Tracer.enabled t.tracer then
    Obs.Tracer.instant t.tracer ~tid ~cat ~name ~a0

let drop t counter ~host ~cat ~name ~a0 =
  Obs.Metrics.inc counter;
  Obs.Span.mark_drop t.spans ~host;
  instant t ~tid:host ~cat ~name ~a0

let now t = t.now.(0)

let schedule_at t ~at fn =
  if at < t.now.(0) then invalid_arg "Sim.schedule_at: time in the past";
  Heap.push t.queue at fn

let schedule t ~delay fn =
  if delay < 0.0 then invalid_arg "Sim.schedule: negative delay";
  schedule_at t ~at:(t.now.(0) +. delay) fn

(* Pop the earliest event, due at [at], and run it. *)
let fire t at =
  let fn = Heap.pop_top t.queue in
  if at > t.now.(0) then t.now.(0) <- at;
  fn ()

let step t =
  if Heap.is_empty t.queue then false
  else begin
    fire t (Heap.top_prio t.queue);
    true
  end

let run ?until t =
  let bound = match until with Some u -> u | None -> infinity in
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    if Heap.is_empty t.queue then continue := false
    else begin
      let at = Heap.top_prio t.queue in
      (* [not (at > bound)], not [at <= bound]: a NaN time still runs *)
      if at > bound then continue := false
      else begin
        fire t at;
        incr count
      end
    end
  done;
  (match until with
  | Some u -> if u > t.now.(0) then t.now.(0) <- u
  | None -> ());
  !count

let advance_clock t delta =
  if delta < 0.0 then invalid_arg "Sim.advance_clock";
  t.now.(0) <- t.now.(0) +. delta

let clock_cell t = t.now

let pending t = Heap.size t.queue

let next_at t = Heap.min_priority t.queue

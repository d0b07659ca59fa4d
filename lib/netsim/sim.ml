module Heap = Protolat_util.Heap
module Obs = Protolat_obs
module Xk = Protolat_xkernel

(* [now] lives in a 1-element float array: a plain mutable float field in
   this mixed record would be boxed, and the engine advances the clock once
   per modeled instruction — that write must not allocate.  [at] is the
   same kind of cell: {!earliest} leaves the chosen position's time there.

   Pending positions live in [queue] and in the timer managers in [hosts];
   all draw their sequence numbers from [counter], so (time, sequence)
   orders every one of them, and the loop pops whichever comes first.

   The hosts' earliest positions are ordered by a winner tree: with [w]
   the power of two at or above the number of hosts, [tree.(w + i)] is
   host [i] (or [-1], none, past the last host), and each inner node
   [tree.(k)] is the earlier of its children [2k] and [2k + 1], so the
   root [tree.(1)] holds the host with the earliest position.  A manager
   calls [settle] whenever its earliest position changes, which replays
   the matches on that host's path only: an incast shard holds up to 128
   client hosts, and a scan of every host on every event cost more there
   than the wake-ups it replaces. *)
type t = {
  now : float array;
  at : float array;
  counter : Heap.counter;
  queue : (unit -> unit) Heap.t;
  queue_top : float array;  (* [Heap.top_cell queue] *)
  queue_seq : int array;  (* [Heap.top_seq_cell queue] *)
  mutable hosts : Xk.Event.t array;
  (* each host manager's [head_cell] and [head_seq_cell], read in place *)
  mutable host_at : float array array;
  mutable host_seq : int array array;
  mutable tree : int array;
  mutable tracer : Obs.Tracer.t;
  mutable spans : Obs.Span.t;
}

let create () =
  let counter = Heap.counter () in
  let queue = Heap.create ~counter () in
  { now = [| 0.0 |];
    at = [| 0.0 |];
    counter;
    queue;
    queue_top = Heap.top_cell queue;
    queue_seq = Heap.top_seq_cell queue;
    hosts = [||];
    host_at = [||];
    host_seq = [||];
    tree = [| -1; -1 |];
    tracer = Obs.Tracer.null;
    spans = Obs.Span.null }

(* The earlier by position of hosts [i] and [j], where [-1] is none. *)
let earlier t i j =
  if i < 0 then j
  else if j < 0 then i
  else begin
    let ai = (Array.unsafe_get t.host_at i).(0)
    and aj = (Array.unsafe_get t.host_at j).(0) in
    if
      aj < ai
      || (aj = ai
         && (Array.unsafe_get t.host_seq j).(0)
            < (Array.unsafe_get t.host_seq i).(0))
    then j
    else i
  end

(* Host [i]'s earliest position has changed: replay the matches on its path
   to the root. *)
let settle t i =
  let tree = t.tree in
  let k = ref ((Array.length tree / 2 + i) / 2) in
  while !k > 0 do
    let l = 2 * !k in
    Array.unsafe_set tree !k
      (earlier t (Array.unsafe_get tree l) (Array.unsafe_get tree (l + 1)));
    k := !k / 2
  done

let timers t =
  let i = Array.length t.hosts in
  let e = Xk.Event.create ~counter:t.counter ~moved:(fun () -> settle t i) () in
  t.hosts <- Array.append t.hosts [| e |];
  t.host_at <- Array.append t.host_at [| Xk.Event.head_cell e |];
  t.host_seq <- Array.append t.host_seq [| Xk.Event.head_seq_cell e |];
  let w = ref 1 in
  while !w < i + 1 do
    w := 2 * !w
  done;
  let tree = Array.make (2 * !w) (-1) in
  for j = 0 to i do
    tree.(!w + j) <- j
  done;
  for k = !w - 1 downto 1 do
    tree.(k) <- earlier t tree.(2 * k) tree.((2 * k) + 1)
  done;
  t.tree <- tree;
  e

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

(* sources of a position, besides [i] for [hosts.(i)] *)
let from_queue = -1
let nowhere = -2

(* The source of the earliest pending position, [nowhere] when nothing is
   pending; the position's time is left in [t.at].  The tree's root is the
   host with the earliest position, so one comparison with the queue's top
   decides. *)
let earliest t =
  let h = Array.unsafe_get t.tree 1 in
  let qs = t.queue_seq.(0) in
  if
    h >= 0
    &&
    let hs = (Array.unsafe_get t.host_seq h).(0) in
    hs <> max_int
    &&
    let ha = (Array.unsafe_get t.host_at h).(0) and qa = t.queue_top.(0) in
    ha < qa || (ha = qa && hs < qs)
  then begin
    t.at.(0) <- (Array.unsafe_get t.host_at h).(0);
    h
  end
  else if qs = max_int then nowhere
  else begin
    t.at.(0) <- t.queue_top.(0);
    from_queue
  end

(* Pass the earliest position, found by [earliest] in [src]. *)
let dispatch t src =
  let at = t.at.(0) in
  if at > t.now.(0) then t.now.(0) <- at;
  if src = from_queue then (Heap.pop_top t.queue) ()
  else ignore (Xk.Event.consume t.hosts.(src) t.now)

let step t =
  let src = earliest t in
  if src = nowhere then false
  else begin
    dispatch t src;
    true
  end

let run ?until t =
  let bound = match until with Some u -> u | None -> infinity in
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    let src = earliest t in
    (* [not (at > bound)], not [at <= bound]: a NaN time still runs *)
    if src = nowhere || t.at.(0) > bound then continue := false
    else begin
      dispatch t src;
      incr count
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

let pending t =
  Array.fold_left
    (fun n e -> n + Xk.Event.positions e)
    (Heap.size t.queue) t.hosts

let next_at t = if earliest t = nowhere then None else Some t.at.(0)

module Heap = Protolat_util.Heap

type entry = {
  mutable cancelled : bool;
  mutable fired : bool;
  fn : unit -> unit;
}

type t = {
  heap : entry Heap.t;
  mutable live : int;
  mutable high_water : int;
}

type handle = t * entry

let create () = { heap = Heap.create (); live = 0; high_water = 0 }

let register t ~at fn =
  let e = { cancelled = false; fired = false; fn } in
  Heap.push t.heap at e;
  t.live <- t.live + 1;
  if t.live > t.high_water then t.high_water <- t.live;
  ((t, e) : handle)

let cancel ((t, e) : handle) =
  if e.cancelled || e.fired then false
  else begin
    e.cancelled <- true;
    t.live <- t.live - 1;
    true
  end

let advance t now =
  let fired = ref 0 in
  while (not (Heap.is_empty t.heap)) && Heap.top_prio t.heap <= now do
    let e = Heap.pop_top t.heap in
    if not e.cancelled then begin
      e.fired <- true;
      t.live <- t.live - 1;
      incr fired;
      e.fn ()
    end
  done;
  !fired

let cancel_all t =
  (* drain the heap, marking everything cancelled: used to model a host
     crash, where every armed timer dies with the protocol state *)
  let killed = ref 0 in
  while not (Heap.is_empty t.heap) do
    let e = Heap.pop_top t.heap in
    if not (e.cancelled || e.fired) then begin
      e.cancelled <- true;
      incr killed
    end
  done;
  t.live <- 0;
  !killed

let pending t = t.live

let high_water t = t.high_water

let next_due t =
  (* drop cancelled entries at the top, then peek: popping the live top
     and pushing it back would give it a fresh sequence number, so it
     would fire after equal-deadline events registered later *)
  while (not (Heap.is_empty t.heap)) && (Heap.top t.heap).cancelled do
    ignore (Heap.pop_top t.heap)
  done;
  Heap.min_priority t.heap

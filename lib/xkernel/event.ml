module Heap = Protolat_util.Heap

(* A timer is a slot: its callback, deadline, state and generation sit in
   parallel arrays, and its handle is [gen lsl slot_bits lor slot], an
   immediate int.  Registering pushes the slot onto [heap] at the timer's
   position, (deadline, sequence number); the number comes from the counter
   the manager shares with the simulator driving it, so every position of
   every manager and of the simulator's own queue is totally ordered.

   A position is passed by [consume], once.  Passing one fires every armed
   timer due by the clock, so it can take other timers off the heap before
   their own positions come up; those positions go to the FIFO [ring] of
   spent positions and are passed in their turn, firing only what has come
   due since.  Positions enter the ring in increasing order: each [consume]
   takes off the heap everything due by its clock, the clock never goes
   back, and a timer registered later takes a later sequence number.

   The earliest position is kept in the one-cell [head] and [head_seq],
   and [moved] is called whenever it changes, so the simulator can keep
   its hosts' earliest positions ordered without looking at each. *)

type handle = int

let none = -1

let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl 32) - 1

(* slot states *)
let idle = 0
let armed = 1
let cancelled = 2

let noop () = ()

type t = {
  heap : int Heap.t;  (* the slot of every timer not yet taken off it *)
  heap_top : float array;  (* [Heap.top_cell heap] *)
  heap_seq : int array;  (* [Heap.top_seq_cell heap] *)
  mutable fns : (unit -> unit) array;
  mutable ats : float array;
  mutable states : int array;
  mutable gens : int array;
  mutable free : int array;  (* idle slots, [free.(0 .. nfree - 1)] *)
  mutable nfree : int;
  (* spent positions, [ring_len] of them from [ring_first], capacity a
     power of two *)
  mutable ring_at : float array;
  mutable ring_seq : int array;
  mutable ring_first : int;
  mutable ring_len : int;
  head : float array;  (* time of the earliest position, [infinity] if none *)
  head_seq : int array;  (* its sequence number, [max_int] if none *)
  moved : unit -> unit;
  mutable live : int;
  mutable high_water : int;
}

let create ?counter ?(moved = noop) () =
  let heap = Heap.create ?counter () in
  { heap;
    heap_top = Heap.top_cell heap;
    heap_seq = Heap.top_seq_cell heap;
    fns = [||];
    ats = [||];
    states = [||];
    gens = [||];
    free = [||];
    nfree = 0;
    ring_at = [||];
    ring_seq = [||];
    ring_first = 0;
    ring_len = 0;
    head = [| infinity |];
    head_seq = [| max_int |];
    moved;
    live = 0;
    high_water = 0 }

(* The earliest of the heap's top and the ring's first position, told to
   [moved] if it changed. *)
let set_head t =
  let before = t.head_seq.(0) in
  let ha = t.heap_top.(0) and hs = t.heap_seq.(0) in
  if t.ring_len > 0 then begin
    let ra = t.ring_at.(t.ring_first) and rs = t.ring_seq.(t.ring_first) in
    if ra < ha || (ra = ha && rs < hs) then begin
      t.head.(0) <- ra;
      t.head_seq.(0) <- rs
    end
    else begin
      t.head.(0) <- ha;
      t.head_seq.(0) <- hs
    end
  end
  else begin
    t.head.(0) <- ha;
    t.head_seq.(0) <- hs
  end;
  if t.head_seq.(0) <> before then t.moved ()

(* Double the slot columns.  Only a manager with no idle slot grows, so the
   new slots [old, cap) become the whole free stack. *)
let grow_slots t =
  let old = Array.length t.states in
  let cap = max 16 (2 * old) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 old;
    b
  in
  t.fns <- extend t.fns noop;
  t.ats <- extend t.ats 0.0;
  t.states <- extend t.states idle;
  t.gens <- extend t.gens 0;
  t.free <- Array.make cap 0;
  for k = 0 to cap - old - 1 do
    t.free.(k) <- cap - 1 - k
  done;
  t.nfree <- cap - old

let register t ~at fn =
  if t.nfree = 0 then grow_slots t;
  t.nfree <- t.nfree - 1;
  let slot = t.free.(t.nfree) in
  t.fns.(slot) <- fn;
  t.ats.(slot) <- at;
  t.states.(slot) <- armed;
  Heap.push t.heap at slot;
  t.live <- t.live + 1;
  if t.live > t.high_water then t.high_water <- t.live;
  set_head t;
  (t.gens.(slot) lsl slot_bits) lor slot

let cancel t h =
  let slot = h land slot_mask in
  if
    h >= 0
    && slot < Array.length t.states
    && t.gens.(slot) = h lsr slot_bits
    && t.states.(slot) = armed
  then begin
    t.states.(slot) <- cancelled;
    t.fns.(slot) <- noop;
    t.live <- t.live - 1;
    true
  end
  else false

(* Return a slot taken off the heap to the free stack; its generation moves
   on, so handles to it go stale. *)
let release t slot =
  t.fns.(slot) <- noop;
  t.states.(slot) <- idle;
  t.gens.(slot) <- (t.gens.(slot) + 1) land gen_mask;
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1

(* Take the heap's top timer off the heap and run it if it is armed;
   returns how many timers fired (0 or 1). *)
let take t =
  let slot = Heap.pop_top t.heap in
  let fire = t.states.(slot) = armed in
  let fn = t.fns.(slot) in
  release t slot;
  set_head t;
  if fire then begin
    t.live <- t.live - 1;
    fn ();
    1
  end
  else 0

(* Move the heap's top position to the end of the ring. *)
let spend_top t =
  let cap = Array.length t.ring_seq in
  if t.ring_len = cap then begin
    let ncap = max 16 (2 * cap) in
    let at = Array.make ncap 0.0 and seq = Array.make ncap 0 in
    for k = 0 to t.ring_len - 1 do
      let i = (t.ring_first + k) land (cap - 1) in
      at.(k) <- t.ring_at.(i);
      seq.(k) <- t.ring_seq.(i)
    done;
    t.ring_at <- at;
    t.ring_seq <- seq;
    t.ring_first <- 0
  end;
  let i = (t.ring_first + t.ring_len) land (Array.length t.ring_seq - 1) in
  t.ring_at.(i) <- t.heap_top.(0);
  t.ring_seq.(i) <- t.heap_seq.(0);
  t.ring_len <- t.ring_len + 1

let consume t clock =
  let now = clock.(0) in
  let fired =
    if t.ring_len > 0 && t.ring_seq.(t.ring_first) = t.head_seq.(0) then begin
      t.ring_first <- (t.ring_first + 1) land (Array.length t.ring_seq - 1);
      t.ring_len <- t.ring_len - 1;
      set_head t;
      0
    end
    else take t
  in
  let fired = ref fired in
  while (not (Heap.is_empty t.heap)) && t.heap_top.(0) <= now do
    spend_top t;
    fired := !fired + take t
  done;
  !fired

let advance t now =
  let clock = [| now |] in
  let fired = ref 0 in
  while t.head_seq.(0) <> max_int && t.head.(0) <= now do
    fired := !fired + consume t clock
  done;
  !fired

let cancel_all t =
  let killed = ref 0 in
  for slot = 0 to Array.length t.states - 1 do
    if t.states.(slot) = armed then begin
      t.states.(slot) <- cancelled;
      t.fns.(slot) <- noop;
      incr killed
    end
  done;
  t.live <- 0;
  !killed

let pending t = t.live

let high_water t = t.high_water

let next_due t =
  let due = ref infinity and any = ref false in
  for slot = 0 to Array.length t.states - 1 do
    if t.states.(slot) = armed && ((not !any) || t.ats.(slot) < !due) then begin
      any := true;
      due := t.ats.(slot)
    end
  done;
  if !any then Some !due else None

let positions t = Heap.size t.heap + t.ring_len

let head_cell t = t.head

let head_seq_cell t = t.head_seq

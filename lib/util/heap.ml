(* Struct-of-arrays binary heap.  Heap slot [i] holds priority [prios.(i)],
   insertion sequence [seqs.(i)] and [cells.(i)], the index of the cell of
   [vals] holding its value.  A value is written into its cell once, on
   push, and never moves: sifting shifts only the unboxed float and int
   columns, so it allocates nothing and runs no write barrier (storing a
   young value into an array in the major heap costs one per store).  Freed
   cells are stacked in [free] for reuse; a popped value stays in its cell
   until a later push reuses it.

   Sifting reads the moving entry into locals, shifts a hole instead of
   swapping slots, and compares inline: a float passed to a function that is
   not inlined would be boxed. *)
type 'a t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable cells : int array;
  mutable vals : 'a array;
  mutable free : int array;  (* free cells, [free.(0 .. nfree - 1)] *)
  mutable nfree : int;
  mutable len : int;
  mutable seq : int;
}

let create () =
  { prios = [||];
    seqs = [||];
    cells = [||];
    vals = [||];
    free = [||];
    nfree = 0;
    len = 0;
    seq = 0 }

let is_empty t = t.len = 0

let size t = t.len

let move t ~src ~dst =
  Array.unsafe_set t.prios dst (Array.unsafe_get t.prios src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.cells dst (Array.unsafe_get t.cells src)

(* Move the entry in slot [src] up from the hole at [src] until its parent
   is not after it.  Slots below [t.len] are in bounds, so the accesses are
   unchecked. *)
let sift_up t src =
  let p = Array.unsafe_get t.prios src
  and s = Array.unsafe_get t.seqs src
  and c = Array.unsafe_get t.cells src in
  let i = ref src in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = Array.unsafe_get t.prios parent in
    if (if p = pp then s < Array.unsafe_get t.seqs parent else p < pp) then begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set t.prios !i p;
  Array.unsafe_set t.seqs !i s;
  Array.unsafe_set t.cells !i c

(* Settle the entry in slot [src] (just past the heap's end) into the hole
   at the root: the hole takes the smaller child while that child is before
   the entry. *)
let sift_down t src =
  let p = Array.unsafe_get t.prios src and s = Array.unsafe_get t.seqs src in
  let n = t.len in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let c =
      if l < n then
        let pl = Array.unsafe_get t.prios l in
        if (if pl = p then Array.unsafe_get t.seqs l < s else pl < p) then l
        else -1
      else -1
    in
    let c =
      if r < n then
        let pr = Array.unsafe_get t.prios r in
        if c < 0 then
          if (if pr = p then Array.unsafe_get t.seqs r < s else pr < p) then r
          else c
        else
          let pl = Array.unsafe_get t.prios l in
          if
            if pr = pl then
              Array.unsafe_get t.seqs r < Array.unsafe_get t.seqs l
            else pr < pl
          then r
          else c
      else c
    in
    if c < 0 then continue := false
    else begin
      move t ~src:c ~dst:!i;
      i := c
    end
  done;
  move t ~src ~dst:!i

(* Double every column.  Only a full heap grows, so the free stack is empty
   and the new cells [old, cap) become the whole of it. *)
let grow t value =
  let old = Array.length t.prios in
  let cap = max 16 (2 * old) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 old;
    b
  in
  t.prios <- extend t.prios 0.0;
  t.seqs <- extend t.seqs 0;
  t.cells <- extend t.cells 0;
  t.vals <- extend t.vals value;
  t.free <- Array.make cap 0;
  for k = 0 to cap - old - 1 do
    t.free.(k) <- cap - 1 - k
  done;
  t.nfree <- cap - old

let push t prio value =
  if t.nfree = 0 then grow t value;
  t.nfree <- t.nfree - 1;
  let cell = t.free.(t.nfree) in
  t.vals.(cell) <- value;
  let n = t.len in
  t.prios.(n) <- prio;
  t.seqs.(n) <- t.seq;
  t.cells.(n) <- cell;
  t.seq <- t.seq + 1;
  t.len <- n + 1;
  sift_up t n

let top_prio t = if t.len = 0 then infinity else t.prios.(0)

let top t =
  if t.len = 0 then invalid_arg "Heap.top: empty heap";
  t.vals.(t.cells.(0))

let pop_top t =
  if t.len = 0 then invalid_arg "Heap.pop_top: empty heap";
  let cell = t.cells.(0) in
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then sift_down t last;
  t.free.(t.nfree) <- cell;
  t.nfree <- t.nfree + 1;
  t.vals.(cell)

let min_priority t = if t.len = 0 then None else Some t.prios.(0)

let pop t =
  if t.len = 0 then None
  else begin
    let prio = t.prios.(0) in
    Some (prio, pop_top t)
  end

let clear t =
  for k = 0 to t.len - 1 do
    t.free.(t.nfree + k) <- t.cells.(k)
  done;
  t.nfree <- t.nfree + t.len;
  t.len <- 0

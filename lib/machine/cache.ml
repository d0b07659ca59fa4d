type t = {
  name : string;
  block_bytes : int;
  block_shift : int; (* log2 block_bytes: addr lsr shift = block address *)
  sets : int;
  set_mask : int; (* sets - 1 *)
  page_shift : int; (* log2 sets per tag page: set s is on page s lsr shift *)
  page_mask : int; (* sets per tag page - 1: its offset on that page *)
  pages : int array array;
      (* the tag array, paged: block address currently cached in each set,
         -1 empty.  A page is [absent] until its first fill, so a run pays
         only for the pages its references reach: the 2MB b-cache has 128
         pages of 512 sets, and a roundtrip's trace touches a handful. *)
  mutable evicted : Bytes.t option array;
      (* paged grow-on-demand bitset over block addresses: blocks evicted
         at least once (feeds cold- vs replacement-miss accounting).  The
         modeled address space has code near 0x10000 and data near
         0x1000_0000, so a flat bitset would span megabytes; pages of
         [ev_blocks] bits materialize only where evictions happen. *)
  mutable accesses : int;
  mutable hits : int;
  mutable cold : int;
  mutable repl : int;
  mutable last_victim : int;
      (* block evicted by the most recent access; -1 if it hit or filled an
         empty set.  Lets an attribution pass name the (victim, evictor)
         pair of each conflict miss without the cache knowing about
         functions. *)
}

type outcome =
  | Hit
  | Miss_cold
  | Miss_repl

(* A page that holds no line yet: a static atom, so a new cache allocates
   nothing per page and module initialisation allocates nothing at all. *)
let absent : int array = [||]

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* at most 512 sets per tag page; a smaller cache is one page *)
let max_page_shift = 9

(* 4096 blocks (512 bytes) per eviction-bitset page *)
let ev_shift = 12

let ev_blocks = 1 lsl ev_shift

let ev_mask = ev_blocks - 1

let create ~name ~size_bytes ~block_bytes =
  if not (is_pow2 size_bytes && is_pow2 block_bytes) then
    invalid_arg "Cache.create: sizes must be powers of two";
  let sets = size_bytes / block_bytes in
  let page_shift = min max_page_shift (log2 sets) in
  { name;
    block_bytes;
    block_shift = log2 block_bytes;
    sets;
    set_mask = sets - 1;
    page_shift;
    page_mask = (1 lsl page_shift) - 1;
    pages = Array.make (sets lsr page_shift) absent;
    evicted = Array.make 16 None;
    accesses = 0;
    hits = 0;
    cold = 0;
    repl = 0;
    last_victim = -1 }

let name t = t.name

let line_of t addr = addr lsr t.block_shift

let set_of t block = block land t.set_mask

let tag t set =
  let page = t.pages.(set lsr t.page_shift) in
  if Array.length page = 0 then -1 else page.(set land t.page_mask)

let evicted_mem t block =
  let page = block lsr ev_shift in
  page < Array.length t.evicted
  &&
  match t.evicted.(page) with
  | None -> false
  | Some bits ->
    let off = block land ev_mask in
    Char.code (Bytes.unsafe_get bits (off lsr 3)) land (1 lsl (off land 7))
    <> 0

let evicted_add t block =
  let page = block lsr ev_shift in
  if page >= Array.length t.evicted then begin
    let cap = max (page + 1) (2 * Array.length t.evicted) in
    let pages = Array.make cap None in
    Array.blit t.evicted 0 pages 0 (Array.length t.evicted);
    t.evicted <- pages
  end;
  let bits =
    match t.evicted.(page) with
    | Some bits -> bits
    | None ->
      let bits = Bytes.make (ev_blocks lsr 3) '\000' in
      t.evicted.(page) <- Some bits;
      bits
  in
  let off = block land ev_mask in
  Bytes.unsafe_set bits (off lsr 3)
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get bits (off lsr 3)) lor (1 lsl (off land 7))))

let fill t block =
  let set = set_of t block in
  t.accesses <- t.accesses + 1;
  let p = set lsr t.page_shift in
  let page =
    let page = t.pages.(p) in
    if Array.length page > 0 then page
    else begin
      let page = Array.make (t.page_mask + 1) (-1) in
      t.pages.(p) <- page;
      page
    end
  in
  let off = set land t.page_mask in
  let victim = page.(off) in
  t.last_victim <- victim;
  if victim >= 0 then evicted_add t victim;
  page.(off) <- block;
  if evicted_mem t block then begin
    t.repl <- t.repl + 1;
    true
  end
  else begin
    t.cold <- t.cold + 1;
    false
  end

let access t addr =
  let block = line_of t addr in
  if tag t (set_of t block) = block then begin
    t.accesses <- t.accesses + 1;
    t.hits <- t.hits + 1;
    t.last_victim <- -1;
    Hit
  end
  else if fill t block then Miss_repl
  else Miss_cold

let probe t addr =
  let block = line_of t addr in
  tag t (set_of t block) = block

(* only materialized pages can hold a line *)
let invalidate_all t =
  for p = 0 to Array.length t.pages - 1 do
    let page = t.pages.(p) in
    for i = 0 to Array.length page - 1 do
      if page.(i) >= 0 then begin
        evicted_add t page.(i);
        page.(i) <- -1
      end
    done
  done

let set_of_line t line = line land t.set_mask

(* Batch credit for a verified-resident basic block: n hits have exactly the
   counter effect of n per-line [access] hits (accesses/hits up by n, no
   miss counters, no eviction history, last access hit so no victim). *)
let credit_hits t n =
  if n > 0 then begin
    t.accesses <- t.accesses + n;
    t.hits <- t.hits + n;
    t.last_victim <- -1
  end

let reset_stats t =
  t.accesses <- 0;
  t.hits <- 0;
  t.cold <- 0;
  t.repl <- 0

(* Restore the observable state of a fresh [create] in place: empty sets,
   no eviction history, zeroed counters.  Unlike [invalidate_all] this
   forgets the eviction bitset too, so a subsequent first-touch miss
   classifies as cold again.  Materialized tag pages and bitset pages are
   kept and emptied, not dropped: a scorer or replay that clears once per
   candidate reaches the same pages again, and re-allocating them each
   time would cost what [create] no longer does. *)
let clear t =
  Array.iter (fun page -> Array.fill page 0 (Array.length page) (-1)) t.pages;
  Array.iter
    (function
      | Some bits -> Bytes.fill bits 0 (Bytes.length bits) '\000'
      | None -> ())
    t.evicted;
  t.accesses <- 0;
  t.hits <- 0;
  t.cold <- 0;
  t.repl <- 0;
  t.last_victim <- -1

let accesses t = t.accesses

let hits t = t.hits

let misses t = t.cold + t.repl

let cold_misses t = t.cold

let repl_misses t = t.repl

let last_victim t = t.last_victim

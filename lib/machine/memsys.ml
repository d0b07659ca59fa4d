type t = {
  p : Params.t;
  ic : Cache.t;
  dc : Cache.t;
  bc : Cache.t;
  wb : Write_buffer.t;
  mutable last_imiss_block : int; (* for sequential-stream detection *)
  mutable b_acc : int;
  mutable b_miss : int;
  mutable b_repl : int;
  mutable dwb_miss : int; (* d-read misses + writes that reach the b-cache *)
  mutable dwb_acc : int;
  stalls : float array;
      (* 1-element array: a mutable float field in this mixed record would box
         on every store, and stalls accumulate once per cache miss *)
  lat : float array;
      (* scratch cell holding the latency of the most recent fused-path
         reference; returning the float instead would box it on every
         instruction *)
}

type cache_row = {
  miss : int;
  acc : int;
  repl : int;
}

type stats = {
  icache : cache_row;
  dwb : cache_row;
  bcache : cache_row;
  stall_cycles : float;
}

let create p =
  { p;
    ic =
      Cache.create ~name:"i-cache" ~size_bytes:p.Params.icache_bytes
        ~block_bytes:p.Params.block_bytes;
    dc =
      Cache.create ~name:"d-cache" ~size_bytes:p.Params.dcache_bytes
        ~block_bytes:p.Params.block_bytes;
    bc =
      Cache.create ~name:"b-cache" ~size_bytes:p.Params.bcache_bytes
        ~block_bytes:p.Params.block_bytes;
    wb = Write_buffer.create ~depth:p.Params.wb_depth ~block_bytes:p.Params.block_bytes;
    last_imiss_block = min_int;
    b_acc = 0;
    b_miss = 0;
    b_repl = 0;
    dwb_miss = 0;
    dwb_acc = 0;
    stalls = [| 0.0 |];
    lat = [| 0.0 |] }

let params t = t.p

let icache t = t.ic

let dwb_misses t = t.dwb_miss

(* ----- the per-call reference path ----------------------------------------
   [ifetch]/[load]/[store] go through {!Cache.access} and
   {!Write_buffer.write} and return float stall cycles: the plain
   statement of the model, which the fused path below must match
   reference for reference. *)

(* One b-cache reference.  [latency_factor] scales the charged latency: a
   pure prefetch costs nothing now (its benefit shows up as the cheap
   sequential fill later). *)
let baccess t addr ~charge =
  t.b_acc <- t.b_acc + 1;
  let lat =
    match Cache.access t.bc addr with
    | Cache.Hit -> float_of_int t.p.Params.b_hit_cycles
    | Cache.Miss_cold ->
      t.b_miss <- t.b_miss + 1;
      float_of_int t.p.Params.mem_cycles
    | Cache.Miss_repl ->
      t.b_miss <- t.b_miss + 1;
      t.b_repl <- t.b_repl + 1;
      float_of_int t.p.Params.mem_cycles
  in
  match charge with
  | `Full -> lat
  | `Sequential ->
    (* the stream buffer already holds this block unless it missed in the
       b-cache itself *)
    if lat > float_of_int t.p.Params.b_hit_cycles then lat
    else float_of_int t.p.Params.b_seq_cycles
  | `Prefetch -> 0.0

let ifetch t addr =
  match Cache.access t.ic addr with
  | Cache.Hit -> 0.0
  | Cache.Miss_cold | Cache.Miss_repl ->
    let block = Cache.line_of t.ic addr in
    let sequential = block = t.last_imiss_block + 1 in
    t.last_imiss_block <- block;
    let lat =
      baccess t addr ~charge:(if sequential then `Sequential else `Full)
    in
    (* A stream restart prefetches the following block into the stream
       buffer: an extra b-cache access that costs no stall now. *)
    let lat =
      if sequential then lat
      else
        lat
        +. baccess t ((block + 1) * t.p.Params.block_bytes) ~charge:`Prefetch
    in
    t.stalls.(0) <- t.stalls.(0) +. lat;
    lat

let load t addr =
  t.dwb_acc <- t.dwb_acc + 1;
  match Cache.access t.dc addr with
  | Cache.Hit -> 0.0
  | Cache.Miss_cold | Cache.Miss_repl ->
    t.dwb_miss <- t.dwb_miss + 1;
    let lat = baccess t addr ~charge:`Full in
    t.stalls.(0) <- t.stalls.(0) +. lat;
    lat

let store t addr =
  t.dwb_acc <- t.dwb_acc + 1;
  match Write_buffer.write t.wb addr with
  | Write_buffer.Merged -> 0.0
  | Write_buffer.Buffered ->
    (* will reach the b-cache when retired; count it as a d/wb miss the way
       the paper does ("a write that caused a write to the b-cache") but the
       b-cache access and any stall happen at retire time *)
    t.dwb_miss <- t.dwb_miss + 1;
    0.0
  | Write_buffer.Retired victim ->
    t.dwb_miss <- t.dwb_miss + 1;
    let _lat =
      baccess t (victim * t.p.Params.block_bytes) ~charge:`Full
    in
    (* Retirement happens because the buffer is full: the CPU stalls for the
       drain, modeled as a fraction of the b-cache write latency. *)
    let stall = t.p.Params.wb_retire_cycles in
    t.stalls.(0) <- t.stalls.(0) +. stall;
    stall

(* ----- the fused path --------------------------------------------------------
   The same model in int cycles, for the engine and the replays: a hit
   probes the tag page and bumps the counters in place, and only a miss
   leaves the module, through one {!Cache.fill} (or {!Write_buffer.push}).
   No float is returned across a call and no outcome is allocated, so a
   reference allocates nothing.  Every b-cache latency is an int, so int
   sums convert to exactly the float sums of the reference path; the
   stall accumulator adds the same terms in the same order. *)

let hit (c : Cache.t) =
  c.Cache.accesses <- c.Cache.accesses + 1;
  c.Cache.hits <- c.Cache.hits + 1;
  c.Cache.last_victim <- -1

(* the cache's tag page read in place (an empty page holds no line); the
   masked set index is always within the page directory and a
   materialized page *)
let resident (c : Cache.t) line =
  let set = line land c.Cache.set_mask in
  let page = Array.unsafe_get c.Cache.pages (set lsr c.Cache.page_shift) in
  Array.length page > 0
  && Array.unsafe_get page (set land c.Cache.page_mask) = line

(* [baccess ~charge:`Full] in cycles *)
let bref t addr =
  t.b_acc <- t.b_acc + 1;
  let c = t.bc in
  let line = addr lsr c.Cache.block_shift in
  if resident c line then begin
    hit c;
    t.p.Params.b_hit_cycles
  end
  else begin
    t.b_miss <- t.b_miss + 1;
    if Cache.fill c line then t.b_repl <- t.b_repl + 1;
    t.p.Params.mem_cycles
  end

(* [ifetch] in cycles *)
let fetch t pc =
  let c = t.ic in
  let line = pc lsr c.Cache.block_shift in
  if resident c line then begin
    hit c;
    0
  end
  else begin
    ignore (Cache.fill c line);
    let sequential = line = t.last_imiss_block + 1 in
    t.last_imiss_block <- line;
    let lat = bref t pc in
    let lat =
      if sequential then
        if lat > t.p.Params.b_hit_cycles then lat else t.p.Params.b_seq_cycles
      else begin
        ignore (bref t ((line + 1) * t.p.Params.block_bytes));
        lat
      end
    in
    t.stalls.(0) <- t.stalls.(0) +. float_of_int lat;
    lat
  end

(* [load] in cycles *)
let dload t addr =
  t.dwb_acc <- t.dwb_acc + 1;
  let c = t.dc in
  let line = addr lsr c.Cache.block_shift in
  if resident c line then begin
    hit c;
    0
  end
  else begin
    t.dwb_miss <- t.dwb_miss + 1;
    ignore (Cache.fill c line);
    let lat = bref t addr in
    t.stalls.(0) <- t.stalls.(0) +. float_of_int lat;
    lat
  end

let rec buffered (w : Write_buffer.t) line i =
  i < w.Write_buffer.count
  && (Array.unsafe_get w.Write_buffer.buf
        (let j = w.Write_buffer.head + i in
         if w.Write_buffer.depth_mask >= 0 then j land w.Write_buffer.depth_mask
         else j mod w.Write_buffer.depth)
      = line
     || buffered w line (i + 1))

(* [store]: whether the write retired a buffer entry (and so stalled for
   [wb_retire_cycles]) *)
let dstore t addr =
  t.dwb_acc <- t.dwb_acc + 1;
  let w = t.wb in
  let line = addr lsr w.Write_buffer.block_shift in
  w.Write_buffer.writes <- w.Write_buffer.writes + 1;
  if buffered w line 0 then begin
    w.Write_buffer.merges <- w.Write_buffer.merges + 1;
    false
  end
  else begin
    t.dwb_miss <- t.dwb_miss + 1;
    let victim = Write_buffer.push w line in
    victim >= 0
    && begin
         ignore (bref t (victim * t.p.Params.block_bytes));
         t.stalls.(0) <- t.stalls.(0) +. t.p.Params.wb_retire_cycles;
         true
       end
  end

(* Hot-path form of [access]: deposits the latency in [t.lat] instead of
   returning it, so the per-instruction caller never sees a boxed float.
   [s + dload] and [float s +. 0.0] are exactly the reference's
   [s +. load] and [s +. store] on a non-retiring write. *)
let access_acc t ~pc ~kind ~addr =
  let s = fetch t pc in
  t.lat.(0) <-
    (if kind = Trace.kind_read then float_of_int (s + dload t addr)
     else if kind = Trace.kind_write then
       if dstore t addr then float_of_int s +. t.p.Params.wb_retire_cycles
       else float_of_int s
     else float_of_int s)

(* Data-side-only accesses for the engine's warm-chunk fast path: when the
   caller has proven the i-fetch would hit (the chunk's line resident in
   the i-cache's tag array), the i-side contributes exactly 0.0 stall
   and the data reference is the whole latency — bit-identical to
   [access_acc] with a hitting pc, since [0 + x = x]. *)
let load_acc t addr = t.lat.(0) <- float_of_int (dload t addr)

let store_acc t addr =
  t.lat.(0) <- (if dstore t addr then t.p.Params.wb_retire_cycles else 0.0)

let lat_cell t = t.lat

let access t ~pc ~kind ~addr =
  access_acc t ~pc ~kind ~addr;
  t.lat.(0)

let run t trace =
  let total = ref 0.0 in
  for i = 0 to Trace.length trace - 1 do
    access_acc t ~pc:(Trace.pc_at trace i) ~kind:(Trace.kind_at trace i)
      ~addr:(Trace.addr_at trace i);
    total := !total +. t.lat.(0)
  done;
  !total

let invalidate_primary t =
  Cache.invalidate_all t.ic;
  Cache.invalidate_all t.dc;
  ignore (Write_buffer.drain t.wb);
  t.last_imiss_block <- min_int

(* Restore the observable state of a fresh [create p]: every component
   cleared back to its construction state, so a cleared hierarchy
   simulates any trace bit-identically to a newly created one.  The caches
   empty their pages in place, so replaying a trace the hierarchy has run
   before allocates nothing, where a new hierarchy would materialize its
   tag and eviction-bitset pages again. *)
let clear t =
  Cache.clear t.ic;
  Cache.clear t.dc;
  Cache.clear t.bc;
  Write_buffer.clear t.wb;
  t.last_imiss_block <- min_int;
  t.b_acc <- 0;
  t.b_miss <- 0;
  t.b_repl <- 0;
  t.dwb_miss <- 0;
  t.dwb_acc <- 0;
  t.stalls.(0) <- 0.0

let reset_stats t =
  Cache.reset_stats t.ic;
  Cache.reset_stats t.dc;
  Cache.reset_stats t.bc;
  Write_buffer.reset_stats t.wb;
  t.b_acc <- 0;
  t.b_miss <- 0;
  t.b_repl <- 0;
  t.dwb_miss <- 0;
  t.dwb_acc <- 0;
  t.stalls.(0) <- 0.0

let stats t =
  { icache =
      { miss = Cache.misses t.ic;
        acc = Cache.accesses t.ic;
        repl = Cache.repl_misses t.ic };
    dwb = { miss = t.dwb_miss; acc = t.dwb_acc; repl = Cache.repl_misses t.dc };
    bcache = { miss = t.b_miss; acc = t.b_acc; repl = t.b_repl };
    stall_cycles = t.stalls.(0) }

let pp_stats fmt s =
  Format.fprintf fmt
    "i-cache %d/%d (repl %d)  d/wb %d/%d (repl %d)  b-cache %d/%d (repl %d)  stalls %.0f"
    s.icache.miss s.icache.acc s.icache.repl s.dwb.miss s.dwb.acc s.dwb.repl
    s.bcache.miss s.bcache.acc s.bcache.repl s.stall_cycles

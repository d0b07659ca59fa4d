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
      (* scratch cell holding the latency of the most recent [access_acc];
         returning the float instead would box it on every instruction *)
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

let dcache t = t.dc

let dwb_misses t = t.dwb_miss

(* Batch credit for [n] loads proven to hit in the d-cache (all their lines
   resident, witnessed by generation tags): each hitting [load] does
   [dwb_acc + 1] and a hitting [Cache.access] on the d-cache, contributes
   0.0 stall and touches nothing else — so the whole batch reduces to the
   counter increments, applied in one step. *)
let credit_dhits t n =
  if n > 0 then begin
    t.dwb_acc <- t.dwb_acc + n;
    Cache.credit_hits t.dc n
  end

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

let drain_write_buffer t =
  let victims = Write_buffer.drain t.wb in
  List.iter
    (fun v -> ignore (baccess t (v * t.p.Params.block_bytes) ~charge:`Prefetch))
    victims;
  0.0

(* Hot-path variant of [access]: deposits the latency in [t.lat] instead of
   returning it, so the per-instruction caller never sees a boxed float.
   [ifetch]/[load]/[store] return static 0.0 on hits; their computed returns
   box only on misses. *)
let access_acc t ~pc ~kind ~addr =
  let s = ifetch t pc in
  t.lat.(0) <-
    (if kind = Trace.kind_read then s +. load t addr
     else if kind = Trace.kind_write then s +. store t addr
     else s)

(* Data-side-only access for the basic-block fast path: when the caller has
   proven the i-fetch would hit (all the block's lines resident, witnessed
   by generation tags), the i-side contributes exactly 0.0 stall and the
   data reference is the whole latency.  Bit-identical to [access_acc] with
   a hitting pc: [ifetch] returns a static 0.0 on hits without touching
   stalls or stream state, and [0.0 +. x = x] for the non-negative
   latencies [load]/[store] return. *)
let daccess_acc t ~kind ~addr =
  t.lat.(0) <-
    (if kind = Trace.kind_read then load t addr
     else if kind = Trace.kind_write then store t addr
     else 0.0)

let lat_cell t = t.lat

let access t ~pc ~kind ~addr =
  access_acc t ~pc ~kind ~addr;
  t.lat.(0)

let process t (e : Trace.event) =
  let s = ifetch t e.Trace.pc in
  match e.Trace.access with
  | None -> s
  | Some (Trace.Read a) -> s +. load t a
  | Some (Trace.Write a) -> s +. store t a

let run t trace =
  let total = ref 0.0 in
  for i = 0 to Trace.length trace - 1 do
    total :=
      !total
      +. access t ~pc:(Trace.pc_at trace i) ~kind:(Trace.kind_at trace i)
           ~addr:(Trace.addr_at trace i)
  done;
  !total

let invalidate_primary t =
  Cache.invalidate_all t.ic;
  Cache.invalidate_all t.dc;
  ignore (Write_buffer.drain t.wb);
  t.last_imiss_block <- min_int

let invalidate_all t =
  invalidate_primary t;
  Cache.invalidate_all t.bc

(* Restore the exact state of a fresh [create p]: every component cleared
   back to its construction state, so a cleared hierarchy simulates any
   trace bit-identically to a newly created one.  The payoff is avoiding
   the two 65536-set b-cache array allocations that dominate [create] when
   a scorer runs one short simulation per candidate. *)
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

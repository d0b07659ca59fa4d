(* Memoized basic-block replay.

   A trace spends almost all of its instructions inside straight-line runs
   (consecutive pcs 4 bytes apart) that repeat identically across warmup
   iterations and steady-state replays.  Once such a run's i-cache lines are
   all resident, re-simulating it instruction by instruction does nothing but
   rediscover n hits: the i-side contributes zero stall, never touches the
   sequential-stream state, and bumps only the hit counters.  This module
   segments a trace once into compact block-level tables — flat run-offset
   arrays plus packed [Bigarray] reference streams ([(addr lsl 2) lor kind])
   instead of per-instruction SoA rows — then replays it by

   - verifying each run's lines are still resident via {!Cache} generation
     tags (k integer compares in the common case, k probes after an
     invalidation), and when warm, charging the i-side with a single
     {!Cache.credit_hits} and replaying only the data references from the
     packed stream;
   - extending the same generation-tag trick to the d-side: a warm run whose
     distinct load lines are provably still resident in the d-cache charges
     its loads in one {!Memsys.credit_dhits} instead of a
     {!Memsys.daccess_acc} per reference and replays only its stores; any
     invalidation falls back per-run to the full reference replay;
   - falling back to the exact per-instruction {!Memsys.access_acc} loop for
     runs that are not verifiably warm (first encounter, post-invalidate,
     layout conflict within the run, or the fast path disabled by
     {!set_enabled}, which tests use to pick the reference path).

   Equivalence argument (why results are bit-identical to {!Memsys.run}):
   both replays keep the memory system in the same state at every run
   boundary, by induction.  For a warm run, the slow path's i-fetches would
   all hit — a hit returns a static 0.0 without touching stalls, stream
   state, or the b-cache, so skipping them changes nothing except the hit
   counters, which {!Cache.credit_hits} applies in one step (integer
   addition commutes).  Data references never read or modify i-cache state,
   so they see identical d-cache/write-buffer/b-cache state and are replayed
   in the same order with the same addresses; stall accumulation order is
   preserved because hits contribute no terms.  The d-side memo extends the
   same argument one level down: stores never touch the d-cache, so if all
   of a run's distinct load lines are resident at run entry (generation
   compare, and the run's load lines are mutually conflict-free) every load
   hits — each would contribute 0.0 stall and only the d/wb access and
   d-cache hit counters, applied in one step; loads never touch the write
   buffer, so the run's stores replay alone, in order, exactly as before.
   Runs whose lines cannot be proven resident take the exact path
   verbatim. *)

let enabled_flag = ref true

let enabled () = !enabled_flag

let set_enabled b = enabled_flag := b

let dmemo_enabled = enabled

type ref_stream = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  trace : Trace.t;
  block_shift : int;
  n_sets : int;  (* i-cache geometry the i-side tables assume *)
  d_shift : int;
  nd_sets : int;  (* d-cache geometry the d-side tables assume *)
  n_runs : int;
  run_start : int array;  (* n_runs+1: run r = trace [start.(r), start.(r+1)) *)
  (* i-side tables, layout-dependent (rebuilt by {!rebind}): *)
  lines : int array;  (* distinct i-cache lines, per run, first-touch order *)
  sets : int array;  (* set index of each entry of [lines] *)
  line_off : int array;  (* n_runs+1: run r's lines = [off.(r), off.(r+1)) *)
  igens : int array;  (* generation snapshot per line; -1 = unverified *)
  iconf : Bytes.t;
      (* per run, '\001' when two of its lines map to the same i-set: the
         run can evict its own lines mid-flight, never warm-replayable *)
  (* d-side tables, layout-INVARIANT (a layout change moves instruction
     addresses only, so rebinds share them): *)
  refs : ref_stream;  (* all data refs, trace order: (addr lsl 2) lor kind *)
  ref_off : int array;  (* n_runs+1 *)
  wrefs : ref_stream;  (* store addresses only, trace order *)
  wref_off : int array;  (* n_runs+1 *)
  dlines : int array;  (* distinct d-cache lines of the run's loads *)
  dsets : int array;
  dl_off : int array;  (* n_runs+1 *)
  dgens : int array;  (* generation snapshot per d-line; -1 = unverified *)
  dconf : Bytes.t;  (* two distinct load lines of the run share a d-set *)
  mutable bound : Memsys.t option;
      (* the memory system the gen snapshots refer to, compared physically:
         a fresh cache restarts generations at 0, which could coincide with
         stale snapshots and fake residency *)
  mutable fast_runs : int;
  mutable slow_runs : int;
  mutable dmemo_loads : int;
}

let trace t = t.trace

let n_runs t = t.n_runs

let fast_runs t = t.fast_runs

let slow_runs t = t.slow_runs

let dmemo_loads t = t.dmemo_loads

let reset_counters t =
  t.fast_runs <- 0;
  t.slow_runs <- 0;
  t.dmemo_loads <- 0

(* ----- process-wide replay totals ----------------------------------------- *)

(* Accumulated at the end of every {!replay} (one atomic add per counter per
   replay — negligible), so a harness can report fast-path hit rates for a
   whole run regardless of how many block caches and domains were
   involved. *)

type totals = {
  t_fast_runs : int;
  t_slow_runs : int;
}

let g_fast = Atomic.make 0

let g_slow = Atomic.make 0

let totals () =
  { t_fast_runs = Atomic.get g_fast; t_slow_runs = Atomic.get g_slow }

(* ----- segmentation -------------------------------------------------------- *)

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* Small growable int buffer for the line tables (final sizes are not known
   until the per-run dedup has run). *)
type ibuf = {
  mutable buf : int array;
  mutable n : int;
}

let ibuf_make ?(cap = 256) () = { buf = Array.make (max 1 cap) 0; n = 0 }

let ibuf_push b v =
  if b.n = Array.length b.buf then begin
    let a = Array.make (2 * b.n) 0 in
    Array.blit b.buf 0 a 0 b.n;
    b.buf <- a
  end;
  b.buf.(b.n) <- v;
  b.n <- b.n + 1

(* Push [v] unless it already appears at index >= [lo] (the current run's
   portion of the buffer).  Runs touch a handful of lines, so the linear
   scan is trivial. *)
let ibuf_push_unique b lo v =
  let rec mem i = i < b.n && (b.buf.(i) = v || mem (i + 1)) in
  if not (mem lo) then ibuf_push b v

let ibuf_contents b =
  if b.n = Array.length b.buf then b.buf else Array.sub b.buf 0 b.n

(* Any two entries of [sets] in [lo, hi) equal? (self-conflict test) *)
let has_dup (b : ibuf) lo =
  let dup = ref false in
  for a = lo to b.n - 1 do
    for c = a + 1 to b.n - 1 do
      if b.buf.(a) = b.buf.(c) then dup := true
    done
  done;
  !dup

(* Rebuild the i-side tables (lines / sets / offsets / conflict flags) of
   [t] from its trace's pcs — shared by {!segment} and {!rebind}.  [cap]
   pre-sizes the line buffers: a rebind passes its parent's line count, so
   a layout search's many candidates do not each regrow them by doubling
   (every array past the first size would land in the major heap as
   garbage). *)
let bind_ilines ?cap ~trace ~block_shift ~n_sets ~run_start ~n_runs () =
  let lines_b = ibuf_make ?cap () in
  let sets_b = ibuf_make ?cap () in
  let line_off = Array.make (n_runs + 1) 0 in
  let iconf = Bytes.make n_runs '\000' in
  let mask = n_sets - 1 in
  for r = 0 to n_runs - 1 do
    let lo = lines_b.n in
    for i = run_start.(r) to run_start.(r + 1) - 1 do
      ibuf_push_unique lines_b lo (Trace.pc_at trace i lsr block_shift)
    done;
    for j = lo to lines_b.n - 1 do
      ibuf_push sets_b (lines_b.buf.(j) land mask)
    done;
    if has_dup sets_b lo then Bytes.set iconf r '\001';
    line_off.(r + 1) <- lines_b.n
  done;
  let lines = ibuf_contents lines_b in
  let sets = ibuf_contents sets_b in
  (lines, sets, line_off, Array.make (Array.length lines) (-1), iconf)

let segment (p : Params.t) trace =
  let n = Trace.length trace in
  let block_shift = log2 p.Params.block_bytes in
  let n_sets = p.Params.icache_bytes / p.Params.block_bytes in
  let nd_sets = p.Params.dcache_bytes / p.Params.block_bytes in
  (* pass 1: run boundaries and reference counts *)
  let starts = ibuf_make () in
  ibuf_push starts 0;
  let n_refs = ref 0 in
  let n_stores = ref 0 in
  for i = 0 to n - 1 do
    let k = Trace.kind_at trace i in
    if k <> Trace.kind_none then begin
      incr n_refs;
      if k = Trace.kind_write then incr n_stores
    end;
    if i + 1 >= n || Trace.pc_at trace (i + 1) <> Trace.pc_at trace i + 4 then
      ibuf_push starts (i + 1)
  done;
  let run_start = ibuf_contents starts in
  let n_runs = Array.length run_start - 1 in
  (* pass 2: packed reference streams and the d-side line tables *)
  let refs =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 1 !n_refs)
  in
  let wrefs =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 1 !n_stores)
  in
  let ref_off = Array.make (n_runs + 1) 0 in
  let wref_off = Array.make (n_runs + 1) 0 in
  let dl_off = Array.make (n_runs + 1) 0 in
  let dlines_b = ibuf_make () in
  let dsets_b = ibuf_make () in
  let dconf = Bytes.make (max 1 n_runs) '\000' in
  let dmask = nd_sets - 1 in
  let rc = ref 0 in
  let wc = ref 0 in
  for r = 0 to n_runs - 1 do
    let dlo = dlines_b.n in
    for i = run_start.(r) to run_start.(r + 1) - 1 do
      let k = Trace.kind_at trace i in
      if k <> Trace.kind_none then begin
        let addr = Trace.addr_at trace i in
        Bigarray.Array1.unsafe_set refs !rc ((addr lsl 2) lor k);
        incr rc;
        if k = Trace.kind_write then begin
          Bigarray.Array1.unsafe_set wrefs !wc addr;
          incr wc
        end
        else ibuf_push_unique dlines_b dlo (addr lsr block_shift)
      end
    done;
    for j = dlo to dlines_b.n - 1 do
      ibuf_push dsets_b (dlines_b.buf.(j) land dmask)
    done;
    if has_dup dsets_b dlo then Bytes.set dconf r '\001';
    ref_off.(r + 1) <- !rc;
    wref_off.(r + 1) <- !wc;
    dl_off.(r + 1) <- dlines_b.n
  done;
  let dlines = ibuf_contents dlines_b in
  let lines, sets, line_off, igens, iconf =
    bind_ilines ~trace ~block_shift ~n_sets ~run_start ~n_runs ()
  in
  { trace;
    block_shift;
    n_sets;
    d_shift = block_shift;
    nd_sets;
    n_runs;
    run_start;
    lines;
    sets;
    line_off;
    igens;
    iconf;
    refs;
    ref_off;
    wrefs;
    wref_off;
    dlines;
    dsets = ibuf_contents dsets_b;
    dl_off;
    dgens = Array.make (Array.length dlines) (-1);
    dconf;
    bound = None;
    fast_runs = 0;
    slow_runs = 0;
    dmemo_loads = 0 }

let rebind t trace' =
  if Trace.length trace' <> Trace.length t.trace then
    invalid_arg "Blockcache.rebind: trace length mismatch";
  (* A layout change rewrites instruction addresses only: run boundaries and
     the packed reference streams (data addresses) are invariant and shared;
     the i-side line tables are recomputed, and the memo state (generation
     snapshots) starts unverified. *)
  let lines, sets, line_off, igens, iconf =
    bind_ilines ~cap:(Array.length t.lines) ~trace:trace'
      ~block_shift:t.block_shift ~n_sets:t.n_sets ~run_start:t.run_start
      ~n_runs:t.n_runs ()
  in
  { t with
    trace = trace';
    lines;
    sets;
    line_off;
    igens;
    iconf;
    dgens = Array.make (Array.length t.dlines) (-1);
    bound = None;
    fast_runs = 0;
    slow_runs = 0;
    dmemo_loads = 0 }

(* ----- replay -------------------------------------------------------------- *)

(* The slow path must be the exact per-instruction loop of [Memsys.run]. *)
let replay_run_slow m trace ~start ~fin =
  for i = start to fin do
    Memsys.access_acc m ~pc:(Trace.pc_at trace i) ~kind:(Trace.kind_at trace i)
      ~addr:(Trace.addr_at trace i)
  done

(* Cold replay, one real fetch per line chunk: within a maximal span of
   consecutive instructions on the same i-cache line, only the first fetch
   can miss — it makes the line resident and nothing before the span's end
   fetches any other line, so the remaining fetches are guaranteed hits and
   reduce to a hit credit plus their data references.  Exact for any run,
   conflicting or not: cross-chunk evictions happen at the next chunk's
   first (real) fetch.  Bit-identical to [replay_run_slow] by the warm-run
   argument applied chunk-tail-wise. *)
let replay_run_cold m ic ~block_shift trace ~start ~fin =
  let i = ref start in
  while !i <= fin do
    let line = Trace.pc_at trace !i lsr block_shift in
    Memsys.access_acc m ~pc:(Trace.pc_at trace !i)
      ~kind:(Trace.kind_at trace !i) ~addr:(Trace.addr_at trace !i);
    incr i;
    let hits = ref 0 in
    while
      !i <= fin && Trace.pc_at trace !i lsr block_shift = line
    do
      incr hits;
      let k = Trace.kind_at trace !i in
      if k <> Trace.kind_none then
        Memsys.daccess_acc m ~kind:k ~addr:(Trace.addr_at trace !i);
      incr i
    done;
    (* after the possible miss at the chunk head, so [last_victim] ends as
       the per-instruction loop leaves it *)
    Cache.credit_hits ic !hits
  done

(* After a full-reference replay of run [r] with no self-conflicting load
   lines, every load line was just loaded and nothing in the run could evict
   it (stores never touch the d-cache): snapshot the generations so the next
   encounter verifies by comparison alone. *)
let snapshot_dgens t dc dcgens r =
  if Bytes.unsafe_get t.dconf r = '\000' then
    for j = t.dl_off.(r) to t.dl_off.(r + 1) - 1 do
      if Cache.resident_line dc t.dlines.(j) then
        t.dgens.(j) <- Array.unsafe_get dcgens (Array.unsafe_get t.dsets j)
      else t.dgens.(j) <- -1
    done

let replay t m =
  (match t.bound with
  | Some m' when m' == m -> ()
  | _ ->
    Array.fill t.igens 0 (Array.length t.igens) (-1);
    Array.fill t.dgens 0 (Array.length t.dgens) (-1);
    t.bound <- Some m);
  let ic = Memsys.icache m in
  let dc = Memsys.dcache m in
  let geometry_ok =
    Cache.n_sets ic = t.n_sets
    && log2 (Cache.block_bytes ic) = t.block_shift
  in
  let fast_on = !enabled_flag && geometry_ok in
  let dmemo_on =
    fast_on
    && Cache.n_sets dc = t.nd_sets
    && log2 (Cache.block_bytes dc) = t.d_shift
  in
  let icgens = Cache.generations ic in
  let dcgens = Cache.generations dc in
  let trace = t.trace in
  let fast = ref 0 and slow = ref 0 and dm_loads = ref 0 in
  for r = 0 to t.n_runs - 1 do
    let warm =
      fast_on
      && Bytes.unsafe_get t.iconf r = '\000'
      &&
      let hi = t.line_off.(r + 1) in
      let ok = ref true in
      let j = ref t.line_off.(r) in
      while !ok && !j < hi do
        let g = Array.unsafe_get icgens (Array.unsafe_get t.sets !j) in
        if Array.unsafe_get t.igens !j <> g then
          if Cache.resident_line ic (Array.unsafe_get t.lines !j) then
            Array.unsafe_set t.igens !j g
          else ok := false;
        incr j
      done;
      !ok
    in
    let rlo = t.ref_off.(r) and rhi = t.ref_off.(r + 1) in
    let wlo = t.wref_off.(r) and whi = t.wref_off.(r + 1) in
    let nstores = whi - wlo in
    if warm then begin
      incr fast;
      Cache.credit_hits ic (t.run_start.(r + 1) - t.run_start.(r));
      if rhi > rlo then begin
        let nloads = rhi - rlo - nstores in
        let dwarm =
          dmemo_on
          && (nloads = 0
             || Bytes.unsafe_get t.dconf r = '\000'
                &&
                let hi = t.dl_off.(r + 1) in
                let ok = ref true in
                let j = ref t.dl_off.(r) in
                while !ok && !j < hi do
                  let g =
                    Array.unsafe_get dcgens (Array.unsafe_get t.dsets !j)
                  in
                  if Array.unsafe_get t.dgens !j <> g then
                    if Cache.resident_line dc (Array.unsafe_get t.dlines !j)
                    then Array.unsafe_set t.dgens !j g
                    else ok := false;
                  incr j
                done;
                !ok)
        in
        if dwarm then begin
          dm_loads := !dm_loads + nloads;
          Memsys.credit_dhits m nloads;
          for j = wlo to whi - 1 do
            Memsys.daccess_acc m ~kind:Trace.kind_write
              ~addr:(Bigarray.Array1.unsafe_get t.wrefs j)
          done
        end
        else begin
          (* full reference replay from the packed stream, trace order *)
          for j = rlo to rhi - 1 do
            let v = Bigarray.Array1.unsafe_get t.refs j in
            Memsys.daccess_acc m ~kind:(v land 3) ~addr:(v lsr 2)
          done;
          if dmemo_on then snapshot_dgens t dc dcgens r
        end
      end
    end
    else begin
      incr slow;
      let start = t.run_start.(r) and fin = t.run_start.(r + 1) - 1 in
      if fast_on then
        replay_run_cold m ic ~block_shift:t.block_shift trace ~start ~fin
      else replay_run_slow m trace ~start ~fin;
      (* After a slow pass of a conflict-free run every line was fetched and
         none evicted another, so all are resident right now: snapshot the
         generations so the next encounter verifies by comparison alone. *)
      if fast_on && Bytes.unsafe_get t.iconf r = '\000' then
        for j = t.line_off.(r) to t.line_off.(r + 1) - 1 do
          if Cache.resident_line ic t.lines.(j) then
            t.igens.(j) <- Array.unsafe_get icgens (Array.unsafe_get t.sets j)
          else t.igens.(j) <- -1
        done;
      if dmemo_on then snapshot_dgens t dc dcgens r
    end
  done;
  t.fast_runs <- t.fast_runs + !fast;
  t.slow_runs <- t.slow_runs + !slow;
  t.dmemo_loads <- t.dmemo_loads + !dm_loads;
  ignore (Atomic.fetch_and_add g_fast !fast);
  ignore (Atomic.fetch_and_add g_slow !slow)

type report = {
  length : int;
  stats : Memsys.stats;
  issue_cycles : float;
  instr_cycles : float;
  total_cycles : float;
  icpi : float;
  mcpi : float;
  cpi : float;
  time_us : float;
}

(* The [icpi]/[mcpi]/[cpi]/[time_us] derivations live here so that [build],
   [cold_and_steady] and [steady_scratch] (which precompute the CPU scans)
   all produce bit-identical reports. *)
let derive p ~length ~issue_cycles ~instr_cycles (stats : Memsys.stats) =
  let total_cycles = instr_cycles +. stats.Memsys.stall_cycles in
  let flen = float_of_int (max length 1) in
  { length;
    stats;
    issue_cycles;
    instr_cycles;
    total_cycles;
    icpi = instr_cycles /. flen;
    mcpi = stats.Memsys.stall_cycles /. flen;
    cpi = total_cycles /. flen;
    time_us = Params.cycles_to_us p total_cycles }

let build p trace (stats : Memsys.stats) =
  derive p ~length:(Trace.length trace)
    ~issue_cycles:(Cpu.issue_cycles p trace)
    ~instr_cycles:(Cpu.perfect_memory_cycles p trace)
    stats

(* ----- measurements -------------------------------------------------------- *)

let cold p trace =
  (* A single replay from empty caches gains nothing from the warm-block
     memo (no run is warm yet), so the plain loop is used. *)
  let m = Memsys.create p in
  ignore (Memsys.run m trace);
  build p trace (Memsys.stats m)

let cold_bc p bc =
  (* Cold measurement from an existing segmentation: one chunked replay
     against a fresh memory system — bit-identical to [Memsys.run] (the
     block-cache equivalence argument), and the incremental step of a
     layout sweep where the rebound segmentation already exists. *)
  let m = Memsys.create p in
  Blockcache.replay bc m;
  build p (Blockcache.trace bc) (Memsys.stats m)

let steady_bc ?(warmup = 3) p bc =
  let m = Memsys.create p in
  for _ = 1 to warmup do
    Blockcache.replay bc m
  done;
  Memsys.reset_stats m;
  (* fast-path counters describe the measured replay alone, never warmup
     or earlier runs against this segmentation *)
  Blockcache.reset_counters bc;
  Blockcache.replay bc m;
  build p (Blockcache.trace bc) (Memsys.stats m)

(* Candidate-scoring variant of [steady_bc]: the caller owns a scratch
   memory system (reused across thousands of candidates) and has hoisted the
   CPU-model scans, which depend only on the instruction-class column and
   are therefore invariant under pc retargeting of one base trace.
   [Memsys.clear] restores exact create-state and a fresh [rebind]
   segmentation starts with no surviving generation snapshots, so the
   result is bit-identical to [steady_bc ~warmup p bc] on the same
   segmentation. *)
let steady_scratch ?(warmup = 3) ~scratch ~issue_cycles ~instr_cycles p bc =
  if Memsys.params scratch <> p then
    invalid_arg "Perf.steady_scratch: scratch memory system params mismatch";
  Memsys.clear scratch;
  for _ = 1 to warmup do
    Blockcache.replay bc scratch
  done;
  Memsys.reset_stats scratch;
  Blockcache.reset_counters bc;
  Blockcache.replay bc scratch;
  derive p
    ~length:(Trace.length (Blockcache.trace bc))
    ~issue_cycles ~instr_cycles
    (Memsys.stats scratch)

let steady ?warmup p trace = steady_bc ?warmup p (Blockcache.segment p trace)

let cold_and_steady ?(warmup = 3) ?scratch p trace =
  let warmup = max warmup 1 in
  let length = Trace.length trace in
  let issue_cycles = Cpu.issue_cycles p trace in
  let instr_cycles = issue_cycles +. Cpu.penalty_cycles p trace in
  let finish stats = derive p ~length ~issue_cycles ~instr_cycles stats in
  let m =
    match scratch with
    | None -> Memsys.create p
    | Some m ->
      if Memsys.params m <> p then
        invalid_arg "Perf.cold_and_steady: scratch memory system params mismatch";
      (* exact create-state; the fresh segmentation below holds no
         generation snapshot from before the clear *)
      Memsys.clear m;
      m
  in
  let bc = Blockcache.segment p trace in
  (* The first replay from empty caches IS the cold measurement, and
     doubles as the first warmup iteration of the steady one. *)
  Blockcache.replay bc m;
  let cold = finish (Memsys.stats m) in
  for _ = 2 to warmup do
    Blockcache.replay bc m
  done;
  Memsys.reset_stats m;
  Blockcache.reset_counters bc;
  Blockcache.replay bc m;
  (cold, finish (Memsys.stats m))

let pp_report fmt r =
  Format.fprintf fmt
    "len=%d cycles=%.0f time=%.1fus CPI=%.2f iCPI=%.2f mCPI=%.2f [%a]" r.length
    r.total_cycles r.time_us r.cpi r.icpi r.mcpi Memsys.pp_stats r.stats

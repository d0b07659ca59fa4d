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
  let m = Memsys.create p in
  ignore (Memsys.run m trace);
  build p trace (Memsys.stats m)

(* [warmup] whole-trace replays, statistics reset, one measured replay *)
let measure ~warmup m trace =
  for _ = 1 to warmup do
    ignore (Memsys.run m trace)
  done;
  Memsys.reset_stats m;
  ignore (Memsys.run m trace)

let steady ?(warmup = 3) p trace =
  let m = Memsys.create p in
  measure ~warmup m trace;
  build p trace (Memsys.stats m)

let steady_scratch ?(warmup = 3) ~scratch ~issue_cycles ~instr_cycles p trace =
  if Memsys.params scratch <> p then
    invalid_arg "Perf.steady_scratch: scratch memory system params mismatch";
  Memsys.clear scratch;
  measure ~warmup scratch trace;
  derive p ~length:(Trace.length trace) ~issue_cycles ~instr_cycles
    (Memsys.stats scratch)

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
      Memsys.clear m;
      m
  in
  (* The first replay from empty caches IS the cold measurement, and
     doubles as the first warmup iteration of the steady one. *)
  ignore (Memsys.run m trace);
  let cold = finish (Memsys.stats m) in
  measure ~warmup:(warmup - 1) m trace;
  (cold, finish (Memsys.stats m))

let pp_report fmt r =
  Format.fprintf fmt
    "len=%d cycles=%.0f time=%.1fus CPI=%.2f iCPI=%.2f mCPI=%.2f [%a]" r.length
    r.total_cycles r.time_us r.cpi r.icpi r.mcpi Memsys.pp_stats r.stats

(** Trace analysis pipeline: runs a protocol-processing trace through the
    memory-hierarchy and CPU simulators and produces the paper's Table 6 and
    Table 7 quantities.

    Two modes reproduce the paper's two measurements:
    - {!cold}: single replay from empty caches — the Table 6 cache statistics
      (large cold b-cache miss counts, zero b-cache replacement misses unless
      the layout conflicts).
    - {!steady}: the trace is replayed [warmup + 1] times and the final
      replay is measured — the per-invocation behaviour of a long ping-pong
      run, in which the b-cache is warm and the primary caches exhibit their
      per-path capacity and conflict misses.  This corresponds to the
      cycle-counter timings of Table 7.

    Every replay is the per-instruction {!Memsys.run}. *)

type report = {
  length : int;  (** trace length in instructions *)
  stats : Memsys.stats;
  issue_cycles : float;
  instr_cycles : float;  (** perfect-memory cycles *)
  total_cycles : float;  (** instr_cycles + memory stalls *)
  icpi : float;
  mcpi : float;
  cpi : float;
  time_us : float;
}

val cold : Params.t -> Trace.t -> report

val steady : ?warmup:int -> Params.t -> Trace.t -> report
(** Default [warmup] is 3. *)

val steady_scratch :
  ?warmup:int ->
  scratch:Memsys.t ->
  issue_cycles:float ->
  instr_cycles:float ->
  Params.t ->
  Trace.t ->
  report
(** {!steady} for candidate scoring at high rate: the caller supplies a
    reusable scratch memory system (cleared here via {!Memsys.clear}, so
    no per-candidate allocation of the 2MB b-cache's set arrays) and the
    hoisted CPU-model scan results — {!Cpu.issue_cycles} and
    {!Cpu.perfect_memory_cycles} of the base trace, which depend only on
    the instruction-class column and are invariant under pc retargeting.
    Bit-identical to [steady ~warmup p trace] given matching hoisted
    cycles.  [scratch] must have been created with exactly [p]
    (checked). *)

val cold_and_steady :
  ?warmup:int -> ?scratch:Memsys.t -> Params.t -> Trace.t -> report * report
(** Both measurements from one memory system: the first replay from empty
    caches is the cold report and doubles as the first warmup iteration
    of the steady one, and the CPU-model scans run once instead of twice
    per report.  Bit-identical to [(cold p trace, steady ~warmup p trace)].
    [warmup] is clamped to at least 1 (the shared first replay requires
    one warmup iteration).

    [scratch] replays on an existing memory system instead of creating
    one: it is {!Memsys.clear}ed first, so the reports do not depend on
    its history.  It must have been created with exactly [p]
    (checked). *)

val pp_report : Format.formatter -> report -> unit

(** Memoized basic-block replay — the simulator's warm-block fast path.

    Segments a trace once into compact block-level tables (flat run-offset
    arrays plus packed [Bigarray] reference streams), then replays it
    against a {!Memsys}: a run whose i-cache lines are verifiably resident
    (witnessed by {!Cache} generation tags) is charged its hits in one step
    and only its data references are simulated — and the same
    generation-tag trick extends to the d-side, so a run whose distinct
    load lines are provably still resident in the d-cache has its loads
    charged in one step and replays only its stores.  Anything not
    verifiably warm falls back per-run to the exact per-instruction loop.
    Results — stall totals, every cache counter, eviction history — are
    bit-identical to {!Memsys.run}. *)

type t

val enabled : unit -> bool
(** Whether replays (and the engine's online simulation) take the fast
    path; on unless {!set_enabled}[ false] was called. *)

val set_enabled : bool -> unit
(** [set_enabled false] forces the per-instruction reference path
    everywhere — the switch the differential tests use to compare the
    fast path against the reference in one process. *)

val dmemo_enabled : unit -> bool
(** Same as {!enabled}: the d-side memo is part of the fast path.  Kept
    for the benchmark harness's stamps. *)

val segment : Params.t -> Trace.t -> t
(** Segment [trace] into basic-block runs against the i- and d-cache
    geometries in the params.  One O(length) pass; the result can replay
    against any number of memory systems. *)

val rebind : t -> Trace.t -> t
(** [rebind t trace'] reuses [t]'s segmentation — run boundaries and the
    packed data-reference streams, which a code layout change does not
    alter, are shared structurally — but recomputes each run's i-cache
    lines from [trace']'s pcs: the incremental step of a layout sweep,
    where only instruction addresses moved.

    @raise Invalid_argument if the traces differ in length. *)

val replay : t -> Memsys.t -> unit
(** Replay the trace through [m], bit-identical to [Memsys.run m trace].
    Safe across distinct memory systems (snapshots are invalidated when the
    target changes) and across mid-replay invalidations (generation tags
    demote affected runs to the slow path). *)

val trace : t -> Trace.t

val n_runs : t -> int

(** {2 Per-instance replay counters}

    All three reset together via {!reset_counters}; the measured-replay
    entry points ({!Perf.steady_bc} and friends) reset them after warmup so
    the counters always describe the measured replay alone and cannot carry
    state across runs. *)

val fast_runs : t -> int
(** Runs replayed via the memoized i-side path since the last
    {!reset_counters}. *)

val slow_runs : t -> int
(** Runs replayed instruction-by-instruction since the last
    {!reset_counters}. *)

val dmemo_loads : t -> int
(** Loads skipped (charged via {!Memsys.credit_dhits}). *)

val reset_counters : t -> unit

(** {2 Process-wide totals}

    Fast and slow runs accumulated across every replay in the process
    (atomically, so domain-parallel sweeps count too) — the source of the
    benchmark ledger's fast-path hit rate. *)

type totals = {
  t_fast_runs : int;
  t_slow_runs : int;
}

val totals : unit -> totals

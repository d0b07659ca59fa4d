(** Attrib-guided automated code-layout search ([protolat search]).

    The paper hand-picks its cloning / micro-positioning layouts (§3.2);
    this module searches the layout space instead.  A candidate layout is
    a {e genome} — a unit order, a desired i-cache set offset per unit
    (or dense packing), and a clone-toggle per unit — decoded to a
    placement by {!Protolat_layout.Strategy.at_offsets} and scored
    through the incremental replay path: the base run's steady-state
    trace is retargeted to the candidate by pure address arithmetic
    against a per-clone-vector template image (no {!Protolat_layout.Image.build}
    per candidate) and replayed against a reused scratch hierarchy
    ({!Protolat_machine.Perf.steady_scratch}) — bit-identical to a full
    simulation of the decoded image, at ≥1000 candidates/sec on one core.

    Moves are guided by the {!Protolat_obs.Attrib} i-cache conflict
    matrix ({!Protolat_obs.Attrib.top_conflicts}): swaps, set-offset
    shifts, pull-together and clone toggles target the hottest
    (victim, evictor) pairs rather than mutating blindly.  Two drivers
    run in sequence — greedy hill-climb, then seeded simulated annealing
    with restarts — with candidate batches fanned over
    {!Protolat_util.Dpool}; proposal generation and acceptance stay on
    the calling domain, so results are bit-identical at any [jobs].

    The named strategies (bipartite, micro, linear, link-order) are
    exactly representable as genomes and seed the search, so the best
    found placement is never worse than the paper's best hand-picked
    layout; the pessimal layout is scored for reference only. *)

type genome = {
  perm : int array;  (** position -> unit index, a permutation *)
  offs : int array;
      (** position -> desired i-cache set offset in blocks plus
          [sets * extra-periods-of-gap] ({!Protolat_layout.Strategy.at_offsets}
          encoding), [-1] dense *)
  cold : bool array;  (** unit index -> outlined cold blocks deferred *)
}

type point = {
  eval : int;  (** scorer evaluations consumed when the best improved *)
  us : float;  (** best steady time after that evaluation *)
}

type cell = {
  stack : Engine.stack_kind;
  icache_kb : int;
  evals : int;  (** scorer evaluations actually consumed *)
  eval_s : float;  (** wall seconds inside candidate evaluation *)
  named : (Config.layout * float) list;
      (** steady time of every named strategy, scored through the same
          incremental path *)
  seeded : Config.layout list;
      (** named strategies whose genome encodings decoded bit-identically
          to the engine-built image and therefore seeded the search *)
  best : genome;
  best_us : float;
  best_order : string list;  (** unit names in best-genome order *)
  greedy_us : float;  (** best after the greedy phase *)
  trajectory : point list;  (** improvement history, oldest first *)
}

val best_named : cell -> Config.layout * float
(** Best non-pessimal hand-picked layout of the cell. *)

type t = {
  cells : cell list;  (** stacks x geometries, in request order *)
  budget : int;
  seeds : int;
  jobs : int;
  wall_s : float;
}

val geometries : int list
(** The {!Ablation.layout_matrix} i-cache geometries, in KB: 4, 8, 16,
    32. *)

val candidates_per_sec : t -> float
(** Total evaluations over total in-evaluation wall time. *)

val run :
  ?budget:int ->
  ?seeds:int ->
  ?geometries:int list ->
  ?stacks:Engine.stack_kind list ->
  ?jobs:int ->
  unit ->
  t
(** Search every stack x geometry cell.  [budget] (default 600) bounds
    scorer evaluations per cell (seed scoring included); [seeds] (default
    2) is the number of annealing restarts; [jobs] fans candidate batches
    over that many domains — results are bit-identical at any value. *)

val digest : t -> string
(** Hex digest over every cell's deterministic content (genomes, scores,
    trajectories) — wall-clock fields excluded, so equal searches at
    different [jobs] or machine speeds digest equally. *)

val check : t -> (unit, string) result
(** Re-score each cell's best genome through the full simulation path —
    decode with {!Protolat_layout.Strategy.at_offsets}, build the image,
    retarget the base trace with {!Protolat_layout.Image.pc_map}, and
    measure with {!Protolat_machine.Perf.steady} on a fresh memory
    system — and require bit-identical steady time, plus
    best-found <= best seeded named layout per cell. *)

val table : t -> Protolat_util.Table.t
(** One row per cell: best named layout vs best found, delta,
    evaluations and candidates/sec. *)

val render : t -> string
(** {!table}, rendered. *)

val to_json : t -> string

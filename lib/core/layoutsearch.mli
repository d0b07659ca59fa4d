(** Attrib-guided automated code-layout search ([protolat search]).

    The paper hand-picks its cloning / micro-positioning layouts (§3.2);
    this module searches the layout space instead.  A candidate layout is
    a {e genome} — a unit order, a desired i-cache set offset per unit
    (or dense packing), and a clone-toggle per unit — decoded to a
    placement by {!Protolat_layout.Strategy.at_offsets}.

    A candidate only moves code, so it is scored on the i-cache alone.
    One base run per stack supplies everything a score reads, each in one
    pass over flat arrays: the client trace with its function tags, the
    client image, and the steady replay's data-side stall and
    instruction cycles.  Inverting the placement the base image was built
    from gives each event's (unit, offset) and the runs of events on one
    line of one unit; a genome's unit bases follow by cursor arithmetic,
    and two passes of a direct-mapped tag array count the steady pass's
    sequential and other i-misses.  While the candidate's code stays
    inside one b-cache period and off the data's b-cache sets, every
    i-miss hits the b-cache and the score is bit-identical to
    {!Protolat_machine.Perf.steady} of the decoded image.  Other genomes,
    and the pessimal layout, move each event through the unit table and
    are replayed on one scratch memory hierarchy per cell.  No score
    builds an image; only {!check} takes the full path.

    Moves are guided by the base layout's i-cache conflict pairs at the
    cell's geometry, the pairs {!Protolat_obs.Attrib.top_conflicts} ranks,
    counted from the tag array's second pass: swaps, set-offset
    shifts, pull-together and clone toggles target the hottest
    (victim, evictor) pairs rather than mutating blindly.  Two drivers
    run in sequence — greedy hill-climb, then seeded simulated annealing
    with restarts.  Stacks are searched in parallel over
    {!Protolat_util.Dpool}, each on its own context, so results are
    bit-identical at any [jobs].

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
          scorer *)
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
    scorer evaluations per cell (the five named layouts included);
    [seeds] (default 2) is the number of annealing restarts; [jobs] runs
    the stacks on that many domains — results are bit-identical at any
    value.
    @raise Invalid_argument if [budget] is below the number of named
    layouts or a geometry is not a positive power of two. *)

val score : Engine.stack_kind -> int -> genome list -> float list
(** [score stack icache_kb genomes] is the scorer's steady time of each
    genome at that i-cache size, on a fresh base run: the value
    [Protolat_machine.Perf.steady ~warmup:1] gives the decoded image's
    retargeted trace, bit for bit.
    @raise Invalid_argument as {!run} for the geometry. *)

val guidance : Engine.stack_kind -> int -> Protolat_obs.Attrib.conflict list
(** [guidance stack icache_kb] is the conflict list the search's moves
    target, on a fresh base run: [Protolat_obs.Attrib.top_conflicts ~k:16]
    of the [Protolat_obs.Attrib.profile] of the base image and trace at
    that i-cache size, counted without a replay.
    @raise Invalid_argument as {!run} for the geometry. *)

val events : Engine.stack_kind -> (int * int) array
(** The unit table of a fresh base run: for each event of the base
    trace, the index of its unit in {!Engine.client_units} order and its
    offset from that unit's base when the unit keeps its outlined cold
    blocks inside. *)

val digest : t -> string
(** Hex digest over every cell's deterministic content (genomes, scores,
    trajectories) — wall-clock fields excluded, so equal searches at
    different [jobs] or machine speeds digest equally. *)

val check : t -> (unit, string) result
(** Re-score each cell through the full simulation path and require
    bit-identical steady times: the best genome is decoded with
    {!Protolat_layout.Strategy.at_offsets} and built, each named layout is
    the engine's own image ({!Engine.layout_for}), the base trace is
    retargeted with {!Protolat_layout.Image.pc_map}, and
    {!Protolat_machine.Perf.steady} measures it on a fresh memory system
    at its default warmup.  Also requires best-found <= best seeded named
    layout per cell. *)

val table : t -> Protolat_util.Table.t
(** One row per cell: best named layout vs best found, delta,
    evaluations and candidates/sec. *)

val render : t -> string
(** {!table}, rendered. *)

val to_json : t -> string

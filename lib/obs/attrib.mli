(** Latency attribution: who spent the cycles, and whose code fought over
    the i-cache.

    The engine tags every collected trace event with its originating
    function ({!Protolat_machine.Trace.fid_at}).  This module replays such
    a trace through a fresh memory hierarchy and charges every issue
    cycle, pipeline penalty and memory-stall cycle to the function that
    incurred it — replicating the CPU's dual-issue pairing walk exactly,
    so the per-function columns sum (to the last bit) to the aggregate
    {!Protolat_machine.Perf} report for the same trace.

    Each i-cache miss is additionally classified: a {e cold} miss has no
    victim; a replacement miss names the (victim, evictor) function pair —
    {e self}-interference when a function evicts its own blocks, {e
    cross}-interference when two functions contend for a set.  This is the
    measurement behind the paper's cache-conscious layout story (§4.2):
    the conflict matrix shows exactly which pairs of functions a layout
    change should separate. *)

type row = {
  func : string;
  instrs : int;
  issue : float;  (** dual-issue cycles charged to this function *)
  penalty : float;  (** pipeline penalties (branches, calls, load-use…) *)
  stall : float;  (** memory-hierarchy stall cycles *)
  imiss : int;
  imiss_cold : int;
  imiss_repl : int;
  dwb_miss : int;  (** d-cache read misses + writes reaching the b-cache *)
}

val cycles : row -> float
(** [issue + penalty + stall]. *)

val mcpi : row -> float
(** Memory stall cycles per instruction charged to this function. *)

type conflict = {
  victim : string;  (** owner of the evicted block *)
  evictor : string;  (** function executing the access that evicted it *)
  count : int;
}

type t = {
  rows : row list;  (** per-function, sorted by name *)
  conflicts : conflict list;  (** sorted by (victim, evictor) *)
  cold_imisses : int;  (** first-touch misses: no victim to name *)
  totals : row;  (** column sums; [func = "TOTAL"] *)
}

val self_imisses : t -> int
(** Replacement misses where a function evicted its own block. *)

val cross_imisses : t -> int
(** Replacement misses across function boundaries. *)

val top_conflicts : ?k:int -> ?cross_only:bool -> t -> conflict list
(** The [k] (default 10) hottest conflict-matrix cells, by descending
    eviction count; equal counts tie-break on (victim, evictor) so the
    order is deterministic.  [cross_only] (default [false]) drops
    self-interference pairs — a placement move cannot separate a function
    from itself.  This is the guidance feed of the automated layout
    search: moves target exactly these pairs instead of mutating
    blindly. *)

val hottest : ?k:int -> ?cross_only:bool -> conflict list -> conflict list
(** {!top_conflicts} of a conflict list given in any order (one entry per
    (victim, evictor) pair). *)

val profile :
  ?mode:[ `Steady | `Cold ] ->
  ?warmup:int ->
  Protolat_machine.Params.t ->
  Protolat_layout.Image.t ->
  Protolat_machine.Trace.t ->
  t
(** Replay [trace] and attribute.  [`Steady] (default) mirrors
    {!Protolat_machine.Perf.steady}: [warmup] (default 3) untimed replays
    warm the hierarchy before the attributed one.  [`Cold] attributes the
    first replay, mirroring {!Protolat_machine.Perf.cold}.  The [image]
    supplies the block→function map used to name eviction victims. *)

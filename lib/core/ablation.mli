(** Ablation studies around the paper's design points.

    These are not paper tables; they probe the boundaries the paper only
    discusses in prose: what a packet classifier costs the path-inlined
    versions (§3.3/§4.2), how the techniques' value depends on i-cache size
    (§3.2's closing caveat), and how it grows on the next machine
    generation (§5's 266 MHz / 66 MB/s outlook). *)

val classifier : unit -> Protolat_util.Table.t
(** PIN and ALL with a 0/1/2/4 µs per-packet classifier, vs OUT: the
    paper's PIN/ALL numbers assume zero overhead; with the published 1-4 µs
    classifiers, how much of path-inlining's win survives? *)

val cache_size : unit -> Protolat_util.Table.t
(** STD vs ALL under 4/8/16/32 KB i-caches: once the whole path fits, the
    layout techniques stop mattering ("the best solution when the problem
    fits into the cache is radically different", §3.2). *)

val linear_vs_bipartite : unit -> Protolat_util.Table.t
(** §3.2's closing caveat: reserving a library partition pays only while
    the path outsizes the i-cache; once everything fits, a simple linear
    (invocation-order) layout is at least as good. *)

val layout_matrix : unit -> Protolat_util.Table.t
(** Steady replay time for every placement strategy under 4/8/16/32 KB
    i-caches, computed incrementally from one protocol simulation: per
    layout the base trace's instruction addresses are rewritten, and the
    retargeted trace is replayed under each geometry. *)

val future_machine : unit -> Protolat_util.Table.t
(** The §5 trend: a 266 MHz CPU with a 66 MB/s memory system (vs the
    measured 175 MHz / 100 MB/s) widens the processor-memory gap, so the
    mCPI-reducing techniques matter more. *)

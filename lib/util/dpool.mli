(** Domain work pool for independent tasks.

    [run tasks] evaluates every thunk and returns the results in
    submission order.  With [~jobs] > 1 the tasks are drained from a
    mutex-protected deque by that many domains (the caller participates);
    with [~jobs:1] the tasks run sequentially in the calling domain, in
    order — exact legacy behavior.  Because results are reassembled by
    submission index, a deterministic task set produces bit-identical
    output at any job count.

    There is no standing pool: every [run] with [jobs > 1] and at least
    two tasks spawns [min jobs n - 1] fresh domains and joins them before
    returning.  A 2-thunk call costs ~65–140 µs on a 2-vCPU x86-64 VM,
    so fan out per cell or per run, never per simulation step. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val run : ?jobs:int -> (unit -> 'a) list -> 'a list
(** @param jobs number of domains (default {!default_jobs}; clamped to
    ≥ 1).  If any task raises, the first exception observed is re-raised
    after the pool drains or stops. *)

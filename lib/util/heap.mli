(** Binary min-heap keyed by float priority, with stable ordering for equal
    priorities (FIFO by insertion sequence).

    The heap is stored struct-of-arrays: per heap slot, an unboxed
    [float array] of priorities, an [int array] of insertion sequence
    numbers and an [int array] of value cells.  Values sit in a separate
    array of cells and never move after {!push} stores them, so sifting
    shifts only unboxed ints and floats: it allocates nothing and runs no
    write barrier.  {!push}, {!top} and {!pop_top} allocate nothing once the
    arrays have grown to the heap's peak size.  {!top_prio} allocates no
    option, but its float result is boxed wherever the call is not inlined
    (across modules in a build without cross-module optimisation);
    {!top_cell} holds the same priority in a one-cell array that a caller
    reads in place.  The option-returning {!min_priority} and {!pop} remain
    for callers off the hot path.

    Sequence numbers come from a {!counter}, which heaps may share: entries
    of two heaps drawing from one counter are totally ordered by
    (priority, sequence), so a caller can merge the heaps' tops exactly. *)

type counter
(** A source of insertion sequence numbers. *)

val counter : unit -> counter
(** A fresh counter, starting at 0. *)

type 'a t

val create : ?counter:counter -> unit -> 'a t
(** An empty heap drawing its sequence numbers from [counter] (by default a
    counter of its own). *)

val is_empty : 'a t -> bool

val size : 'a t -> int

val push : 'a t -> float -> 'a -> unit

val top_prio : 'a t -> float
(** Priority of the entry {!pop_top} would return; [infinity] when the heap
    is empty.  An entry may itself have priority [infinity], so test
    {!is_empty} where the two must be told apart. *)

val top_cell : 'a t -> float array
(** The heap's one-cell array holding {!top_prio}, kept current by every
    operation.  Read it; never write it. *)

val top_seq_cell : 'a t -> int array
(** The heap's one-cell array holding the sequence number of the entry
    {!pop_top} would return, [max_int] when the heap is empty, kept current
    like {!top_cell}. *)

val top : 'a t -> 'a
(** The value {!pop_top} would return, left in place.
    @raise Invalid_argument on an empty heap. *)

val pop_top : 'a t -> 'a
(** Remove and return the value with the smallest priority (earliest
    insertion breaking ties).  Allocation-free.
    @raise Invalid_argument on an empty heap. *)

val min_priority : 'a t -> float option

val pop : 'a t -> (float * 'a) option
(** Remove and return the entry with the smallest priority (earliest
    insertion breaking ties). *)

val clear : 'a t -> unit

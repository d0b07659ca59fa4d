(** Discrete-event simulation engine.  Time is in microseconds. *)

type t

val create : unit -> t

val now : t -> float

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** @raise Invalid_argument on negative delay. *)

val schedule_at : t -> at:float -> (unit -> unit) -> unit
(** @raise Invalid_argument if [at] is in the past. *)

val step : t -> bool
(** Process the next event; [false] when the queue is empty. *)

val run : ?until:float -> t -> int
(** Process events in time order until the queue is empty (or the next
    event is after [until]); returns the number processed.  Events at
    equal times run in scheduling order.

    The loop peeks the queue with {!Protolat_util.Heap.top_prio} and takes
    the event with {!Protolat_util.Heap.pop_top}, so dispatching an event
    allocates only the boxed time of the peek: no option, no tuple, no
    heap entry. *)

val advance_clock : t -> float -> unit
(** Model computation time: move the clock forward by the given amount
    (events due in between remain pending until [run]/[step]). *)

val clock_cell : t -> float array
(** The 1-element cell backing {!now}.  Exposed so a caller charging time
    once per simulated instruction can bump the clock without a float
    crossing a call boundary (which would box it); treat as write-only
    accumulation, never replace the array. *)

val pending : t -> int

val next_at : t -> float option
(** Time of the earliest pending event, if any.  The sharded fabric uses
    this to pick each epoch's global barrier. *)

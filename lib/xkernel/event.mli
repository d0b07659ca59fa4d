(** Timer event management (x-kernel EVENT interface).

    Protocols register callbacks at absolute times (microseconds).  Each
    timer holds a position, (deadline, sequence number), drawn from a
    sequence counter the manager may share with the simulator that drives
    it: the simulator (the network simulator's [Sim]) merges every manager's
    earliest position with its own queue and passes each position through
    {!consume}.  {!advance} drives a manager from an external clock through
    the same function.

    Passing a position fires every armed timer due by the clock, in
    (deadline, sequence) order, so a timer can fire before its own position
    comes up.  Such a position stays pending, spent, and passing it later
    fires only timers that have come due since; cancelled timers keep their
    positions too.  Every registered timer therefore costs exactly one
    passed position, whatever happens to it.

    Handles are immediate ints, and registering, cancelling and firing
    allocate nothing once the manager's arrays have grown to its peak. *)

type t

type handle = private int

val none : handle
(** A handle no timer has: {!cancel} returns [false] for it.  Protocol
    state holds it where no timer is armed. *)

val create :
  ?counter:Protolat_util.Heap.counter -> ?moved:(unit -> unit) -> unit -> t
(** A manager drawing its sequence numbers from [counter] (by default a
    counter of its own).  [moved] (by default nothing) is called whenever
    the manager's earliest pending position changes, after {!head_cell}
    and {!head_seq_cell} hold the new one: when {!register} adds an earlier
    position and when {!consume} passes one, before any callback runs. *)

val register : t -> at:float -> (unit -> unit) -> handle
(** Schedule a callback at absolute time [at] (microseconds). *)

val cancel : t -> handle -> bool
(** [cancel t h] returns [false] if the event already fired or was
    cancelled, or if [h] is {!none}. *)

val consume : t -> float array -> int
(** [consume t clock] passes [t]'s earliest pending position (the caller
    knows there is one) and then fires every armed timer due by
    [clock.(0)], read once at entry; returns the number fired.  Callbacks
    may register and cancel timers. *)

val advance : t -> float -> int
(** Pass every position due at or before the given time, through
    {!consume}; returns the number of events fired.  Callbacks may register
    further events. *)

val cancel_all : t -> int
(** Cancel every registered-but-unfired event (a host crash: all armed
    timers die with the protocol state that armed them).  Returns how many
    live events were cancelled.  Handles already held remain valid:
    cancelling them again returns [false]. *)

val pending : t -> int
(** Armed timers: registered, not yet fired or cancelled. *)

val high_water : t -> int
(** Peak number of simultaneously registered (uncancelled, unfired) events
    over the manager's lifetime — the timer-wheel occupancy figure. *)

val next_due : t -> float option
(** Deadline of the earliest armed timer. *)

val positions : t -> int
(** Pending positions: timers not yet taken off the heap (armed or
    cancelled) plus spent positions. *)

val head_cell : t -> float array
(** One-cell array holding the time of the earliest pending position
    ([infinity] when none), kept current by every operation, so a caller
    in another module compares it without boxing a float.  Read it; never
    write it. *)

val head_seq_cell : t -> int array
(** One-cell array holding the sequence number of the earliest pending
    position ([max_int] when none), kept current like {!head_cell}. *)

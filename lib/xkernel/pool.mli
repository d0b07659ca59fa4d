(** Preallocated message-buffer pools for interrupt handlers (§2.2.2).

    Incoming packets are received into buffers taken from the pool; after
    protocol processing the buffer is refreshed and returned.  The refresh
    short-circuit avoids the free()/malloc() pair whenever the buffer holds
    the sole remaining reference.

    {!create} reserves every buffer's simulated address, in order; a
    buffer's bytes are built by the first {!get} that needs it.  Addresses,
    the order buffers are handed out and {!available} are those of a pool
    whose buffers were all built at {!create}. *)

type t

val create : Simmem.t -> ?shortcircuit:bool -> buffers:int -> size:int -> unit -> t

val available : t -> int
(** Free buffers plus buffers not built yet. *)

val get : t -> Msg.t
(** @raise Failure when the pool is exhausted. *)

val put : t -> Msg.t -> Msg.refresh_outcome
(** Refresh the buffer (short-circuiting if enabled) and return it to the
    pool; reports whether the free()/malloc() pair was short-circuited. *)

val reused : t -> int

val reallocated : t -> int

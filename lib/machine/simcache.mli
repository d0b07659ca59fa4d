(** Retired cross-process simulation cache.

    Every report is computed; nothing is stored across runs.  The two
    names below remain only because the perfbench harness still calls
    them: {!enabled} is always [false] and {!set_enabled} ignores its
    argument. *)

val enabled : unit -> bool

val set_enabled : bool -> unit

(** Metered demultiplexing lookups with conditional inlining (§2.2.3).

    With [inline] true, the one-entry-cache test runs inlined in the caller
    (the caller's "map_cache" block) and the general [map_resolve] function
    is entered only on a cache miss; with [inline] false every lookup calls
    the general function.  Callers must have a "map_cache" block with a
    call site 0 targeting "map_resolve" in their spec. *)

type caller

val caller : string -> caller
(** [caller f]: the meter sites of [f]'s "map_cache" block and its call
    stub 0.  Declare at module initialisation, like any {!Meter.Site}. *)

val lookup :
  Meter.t -> inline:bool -> caller:caller -> 'v Map.t -> string -> 'v option

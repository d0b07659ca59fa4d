(** Retired block-cache replay, and the engine's fast-path switch.

    Every trace replays through the per-instruction {!Memsys.run}; nothing
    is segmented or memoized.  {!enabled} and {!set_enabled} switch the
    engine's online warm-chunk fast path.  The other names remain only
    because the benchmark harness still calls them. *)

type t = Trace.t

val enabled : unit -> bool
(** Whether the engine's online simulation takes its warm-chunk fast path;
    on unless {!set_enabled}[ false] was called.  Results are
    bit-identical either way. *)

val set_enabled : bool -> unit
(** [set_enabled false] forces the engine's per-instruction reference
    path — the switch the differential tests use to compare the fast path
    against the reference in one process. *)

val dmemo_enabled : unit -> bool
(** Always [false]: there is no d-side memo. *)

val segment : Params.t -> Trace.t -> t
(** The trace itself. *)

val rebind : t -> Trace.t -> t
(** [rebind t trace'] is [trace'].

    @raise Invalid_argument if the traces differ in length. *)

val replay : t -> Memsys.t -> unit
(** [replay t m] is [ignore (Memsys.run m t)]. *)

val n_runs : t -> int
(** Straight-line runs in the trace: maximal spans of instructions whose
    pcs are 4 bytes apart. *)

type totals = {
  t_fast_runs : int;
  t_slow_runs : int;
}

val totals : unit -> totals
(** Always zeros: no replay is memoized. *)

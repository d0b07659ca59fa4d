(** Instrumentation interface between protocol code and the machine model.

    Protocol implementations do real work (parse headers, update state,
    compute checksums) and, through a meter, report which modeled basic
    blocks that work corresponds to.  The execution engine's meter turns
    these reports into an instruction/data trace positioned according to the
    current code image; the {!null} meter discards them, so the stacks can
    run standalone. *)

type range = {
  base : int;  (** simulated address of the object *)
  off : int;
  len : int;  (** bytes touched *)
}

(** Meter sites: every place protocol code reports to a meter, interned
    process-wide to a dense int.

    A site names one modeled code location by (function, block) — the
    names the code image registers its slots under — and the meter
    closures take sites, not strings, so a meter can dispatch a report by
    array index instead of hashing names on every block.

    The constructors are idempotent: the same names always give the same
    site, in any domain.  Protocol modules declare their sites as
    top-level [let]s, so registration happens once, at module
    initialisation, and the per-report path never touches the intern
    table.  Constructing a site on a hot path works but pays a locked
    scan of the table per call. *)
module Site : sig
  type t = private int

  type shape =
    | Fn  (** a function's prologue (on entry) and epilogue (on exit) *)
    | Hot of string  (** a hot block *)
    | Cold of string  (** a cold block: its guard plus its cold body *)
    | Stub of string * int  (** the [i]-th call stub at the end of a block *)

  val fn : string -> t
  (** [fn f]: function [f]'s prologue/epilogue. *)

  val block : string -> string -> t
  (** [block f b]: hot block [b] of function [f]. *)

  val cold : string -> string -> t
  (** [cold f b]: the guard of cold block [b] of [f], and the cold code it
      guards. *)

  val call : string -> string -> int -> t
  (** [call f b i]: the [i]-th call site at the end of block [b] of [f].
      @raise Invalid_argument if [i] is negative. *)

  val func : t -> string
  (** The function name the site was interned with. *)

  val shape : t -> shape
  (** Which kind of site, with its block name (and stub index). *)

  val count : unit -> int
  (** Sites interned so far: every site is below this bound. *)
end

type t = {
  enter : Site.t -> unit;  (** function entry ({!Site.fn}): emits the prologue *)
  leave : Site.t -> unit;  (** function exit: emits the epilogue + ret *)
  block : ?reads:range list -> ?writes:range list -> Site.t -> unit;
      (** [block s] executes the hot block of {!Site.block} site [s] *)
  cold :
    ?reads:range list -> ?writes:range list -> triggered:bool -> Site.t -> unit;
      (** [cold ~triggered s] reaches the guard of {!Site.cold} site [s];
          when [triggered] the cold code itself also executes *)
  call : Site.t -> unit;  (** [call s]: the {!Site.call} stub [s] *)
}

val null : t

val fn : t -> Site.t -> (unit -> 'a) -> 'a
(** [fn m s k]: bracket [k] with [enter]/[leave] of the {!Site.fn} site [s]
    (the epilogue is emitted even if [k] raises). *)

val range : base:int -> ?off:int -> len:int -> unit -> range

(** Compose: send every report to both meters (used to cross-check traces
    in tests). *)
val both : t -> t -> t

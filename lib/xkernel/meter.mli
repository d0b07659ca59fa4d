(** Instrumentation interface between protocol code and the machine model.

    Protocol implementations do real work (parse headers, update state,
    compute checksums) and, through a meter, report which modeled basic
    blocks that work corresponds to.  The execution engine's meter turns
    these reports into an instruction/data trace positioned according to the
    current code image; the {!null} meter discards them, so the stacks can
    run standalone.

    A report passes only ints and builds no closure, so protocol code
    allocates nothing to report, whatever the meter.  The data a block
    touches is staged before the block is reported: [read base len] and
    [write base len] each stage one range of [len] bytes at simulated
    address [base].  Every report ends the stage.  [block], and [cold]
    when [triggered], pass the staged ranges on to the code they report;
    every other report ([enter], [leave], [call], an untriggered [cold])
    discards them.  So
    {[
      m.Meter.read (Msg.sim_addr msg) Ip_hdr.size;
      m.Meter.block s_ip_demux_validate
    ]}
    reports IP's validate block reading the header.  A metered function
    brackets its body:
    {[
      m.Meter.enter s_ip_demux;
      body;
      m.Meter.leave s_ip_demux
    ]}
    (a body that ends in a [match] goes in [begin ... end], so that the
    [leave] follows every arm).  A body that raises skips its [leave]:
    nothing resumes a simulation after an exception leaves a metered
    function. *)

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
  read : int -> int -> unit;
      (** [read base len] stages a [len]-byte read at [base] for the next
          report *)
  write : int -> int -> unit;  (** [write base len]: likewise, a write *)
  block : Site.t -> unit;
      (** [block s] executes the hot block of {!Site.block} site [s], which
          touches the staged ranges *)
  cold : triggered:bool -> Site.t -> unit;
      (** [cold ~triggered s] reaches the guard of {!Site.cold} site [s];
          when [triggered] the cold code itself also executes and touches
          the staged ranges (the guard touches none) *)
  call : Site.t -> unit;  (** [call s]: the {!Site.call} stub [s] *)
}

val null : t

(** Compose: send every report, and every staged range, to both meters
    (used to cross-check traces in tests). *)
val both : t -> t -> t

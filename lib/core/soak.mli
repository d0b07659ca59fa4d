(** Deterministic fault-injection soak harness.

    Runs TCP and RPC/BLAST transfers standalone (no machine model, so a
    cell costs milliseconds) under seeded {!Protolat_netsim.Fault} plans
    across a matrix of scenarios × fault schedules × seeds, and asserts
    end-to-end robustness invariants: payloads arrive intact and in order,
    corrupted frames are rejected by checksum, retransmit/NACK counters
    are consistent with the injected faults, and every host's event queue
    drains (no leaked timers).  A {!Cover} meter records which outlined
    cold blocks ({!Protolat_xkernel.Meter.cold}) actually fired, so the
    soak doubles as coverage proof for the error paths the paper outlines
    in §2.2.3 (the blocks are modeled as rarely-executed; this harness is
    what makes "rarely" more than "never").

    The whole matrix is deterministic: the same seeds produce a
    bit-identical {!report} digest at any [jobs] count (the per-cell tasks
    are independent and reassembled in submission order). *)

module Xk = Protolat_xkernel
module Ns = Protolat_netsim

(** Cold-block coverage accumulator: counts, per interned cold site
    ({!Protolat_xkernel.Meter.Site.cold}), how often the guard was reached
    and how often the cold path triggered.  Queries name the site by its
    (function, block). *)
module Cover : sig
  type t

  val create : unit -> t

  val meter : t -> Xk.Meter.t
  (** A meter that records cold-block reach/trigger counts and discards
      everything else.  Install standalone (as a host's meter) or compose
      with the engine meter via {!Engine.run}'s [extra_meter]. *)

  val merge : into:t -> t -> unit

  val reached : t -> func:string -> block:string -> int

  val triggered : t -> func:string -> block:string -> int
end

val tracked_cold_blocks : (string * string) list
(** The curated (function, block) list the coverage gate is measured
    against: every cold block that a fault plan or protocol edge case can
    actually trigger.  Decorative guards whose predicate is hardwired
    false in this model (e.g. ["udiv"/"divzero"]) are excluded. *)

type schedule = {
  sname : string;
  sspec : Ns.Fault.spec;
}

val schedules : schedule list
(** The fault schedules of the matrix: [clean], [loss] (20% independent),
    [burst] (Gilbert–Elliott), [corrupt], [dup], [reorder] (+jitter),
    [mixed], and [device] (LANCE tx stalls + rx overruns). *)

type cell = {
  scenario : string;
  schedule : string;
  seed : int;
  failures : string list;  (** empty = every invariant held *)
  counters : (string * int) list;  (** sorted by key *)
}

type report = {
  cells : cell list;
  cover : Cover.t;  (** merged across all cells *)
  covered : (string * string) list;  (** tracked blocks that triggered *)
  missing : (string * string) list;  (** tracked blocks that never did *)
  digest : string;  (** MD5 over the canonical cell + coverage text *)
}

val seed_for : int -> int
(** Seed of the [i]-th soak sample (distinct stream from
    {!Engine.sample_seed}). *)

val run :
  ?seeds:int ->
  ?jobs:int ->
  ?quick:bool ->
  ?topology:Protolat_netsim.Topology.t ->
  unit ->
  report
(** Run the matrix: [seeds] (default 4) seeds per randomized schedule
    (the [clean] schedule draws nothing and runs once), fanned across
    [jobs] domains.  [quick] shrinks transfer sizes and round counts for
    CI.  [topology] is the 2-host wiring every scenario pair runs over
    (default {!Protolat_netsim.Topology.pair}; [star:2]/[line:2] route
    the same traffic through the switched fabric). *)

val coverage_pct : report -> float

val passed : report -> bool
(** All cells passed and ≥ 90% of {!tracked_cold_blocks} triggered. *)

val render : report -> string

(** Latency-provenance reports ([protolat spans]).

    Runs one configuration with the {!Protolat_obs.Span} ledger enabled
    under each candidate code layout, extracts the per-message stage
    spans, and rolls them up into a per-stage latency budget whose
    columns answer the paper's motivating question — {e where} does a
    roundtrip spend its time, and how does code placement move it — with
    the conservation guarantee that every message's stage durations fold
    bit-exactly to its measured RTT.

    {!check} enforces that guarantee ({!Protolat_obs.Span.conserved})
    against every collected layout. *)

module Obs = Protolat_obs

type cell = {
  layout : Config.layout;
  run : Engine.run_result;
  msgs : Obs.Span.message array;
  budget : Obs.Span.budget;
}

type t = {
  stack : Engine.stack_kind;
  version : Config.version;
  topology : Protolat_netsim.Topology.t;
  seed : int;
  rounds : int;
  cells : cell list;  (** one per layout, in request order *)
}

val collect_one :
  ?topology:Protolat_netsim.Topology.t ->
  ?seed:int ->
  ?rounds:int ->
  ?fault:Protolat_netsim.Fault.spec ->
  stack:Engine.stack_kind ->
  version:Config.version ->
  layout:Config.layout ->
  unit ->
  cell
(** One spans-enabled measurement run under the given layout. *)

val collect :
  ?topology:Protolat_netsim.Topology.t ->
  ?seed:int ->
  ?rounds:int ->
  ?layouts:Config.layout list ->
  ?fault:Protolat_netsim.Fault.spec ->
  ?jobs:int ->
  stack:Engine.stack_kind ->
  version:Config.version ->
  unit ->
  t
(** One {!collect_one} per layout (default {!Config.all_layouts}), fanned
    over a domain pool; results are identical at any job count. *)

val check : t -> (unit, string) result
(** The conservation law for every layout: per message, the stage-duration
    fold and the recorded total must equal the engine's measured RTT
    bit-exactly.  Violations come back one per line, tagged with the
    layout name. *)

val render : t -> string
(** Two text tables: per-stage mean µs/roundtrip (with share of RTT) per
    layout, and the same rolled up per host. *)

val to_json : t -> string
(** Deterministic JSON document: schema version, stage/host name tables,
    and per-layout budgets ([stage_mean_us], [host_stage_us], totals,
    conservation verdict). *)

val perfetto : t -> string
(** The collected span ledgers as a Perfetto trace-event document — one
    process per layout, per-host threads of stage slices, flow arrows
    tying each wire hop's send span to its receive span. *)

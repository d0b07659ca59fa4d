(** The execution engine: binds the protocol stacks to the machine model.

    For a given configuration it (1) applies outlining / cloning /
    path-inlining to the stack's cost model and builds a concrete code
    image with the configured placement strategy, (2) installs a meter that
    turns every protocol action into an instruction/data trace positioned
    in that image, runs each event through the memory-hierarchy and CPU
    models {e online} (advancing the simulated clock, so protocol
    processing time shapes the end-to-end timeline exactly as slow code
    would on hardware), and (3) collects one steady-state roundtrip's trace
    for the offline Table 6 / Table 7 analysis.

    Interrupt dispatch and context switching are modeled as {e untraced}
    pseudo-functions: they cost time and occupy cache like the rest of the
    kernel but are excluded from the collected traces, as in §4.4. *)

module Layout = Protolat_layout
module Machine = Protolat_machine
module Obs = Protolat_obs

type stack_kind =
  | Tcpip
  | Rpc

val stack_name : stack_kind -> string

type desc
(** A stack's code as the engine compiles it. *)

(** One stack as every two-host harness drives it: Figure 1's TCP/IP and
    RPC over the same ETH/LANCE.  Harnesses build the net, instrument both
    hosts, run the ping-pong test and count retransmissions through this
    signature; only protocol-specific workloads touch [host]. *)
module type STACK = sig
  type host
  type test

  val desc : desc
  (** the client's code *)

  val server_image : Config.t -> layout:Config.layout -> Layout.Image.t
  (** TCP/IP's server runs the client's image; RPC's always runs ALL with
      the bipartite layout (§4.2) *)

  val opts_for : Protolat_tcpip.Opts.t -> int -> Protolat_tcpip.Opts.t
  (** host [i]'s §2.2 options when the client runs the given set *)

  val make_net :
    ?opts_for:(int -> Protolat_tcpip.Opts.t) ->
    ?meter_for:(int -> Protolat_xkernel.Meter.t option) ->
    topology:Protolat_netsim.Topology.t ->
    unit ->
    host Protolat_tcpip.Stack.gnet

  val env : host -> Protolat_netsim.Host_env.t
  val lance : host -> Protolat_netsim.Lance.t

  val establish : host Protolat_tcpip.Stack.gpair -> rounds:int -> test
  (** creates both ends of a [rounds]-roundtrip ping-pong test (TCP/IP
      also runs the handshake) and returns the client's *)

  val start : test -> unit
  val set_on_roundtrip : test -> (int -> unit) -> unit
  val rounds_completed : test -> int

  val retransmits : host Protolat_tcpip.Stack.gpair -> int
  (** the client's: TCP segments, or CHAN requests *)

  val layers : string list
  (** Figure 1's layers top-down; a function belongs to the one whose
      lowercased name plus ['_'] prefixes it, or to an alias's *)

  val layer_aliases : (string * string) list
end

val tcpip : (module STACK with type host = Protolat_tcpip.Stack.host)
val rpc : (module STACK with type host = Protolat_rpc.Rstack.host)
val stack : stack_kind -> (module STACK)

val pump :
  Protolat_netsim.Sim.t ->
  slice_us:float ->
  deadline:float ->
  (unit -> bool) ->
  unit
(** Run the simulator in [slice_us] slices until the predicate holds or
    the clock reaches [deadline] (the last slice may overrun it). *)

type run_result = {
  rtts : float list;  (** per measured roundtrip, µs *)
  trace : Machine.Trace.t;  (** one steady-state client roundtrip *)
  client_image : Layout.Image.t;
  steady : Machine.Perf.report;  (** warm replay: Table 7 quantities *)
  cold : Machine.Perf.report;  (** cold replay: Table 6 quantities *)
  online : Machine.Memsys.stats;
      (** the client's online memory-hierarchy statistics over the whole
          run, warmup included, read before that hierarchy is cleared and
          reused for the offline replays *)
  static_path : int * int;  (** (with cold, hot-only) path instructions *)
  retransmissions : int;
  metrics : Obs.Metrics.t;
      (** the pair's unified metrics registry: device/protocol counters
          under [client.]/[server.]/[link.] scopes, fault counters when a
          plan was installed, and the [engine.rtt_us] histogram *)
  events : Obs.Tracer.t;
      (** timeline events ({!Obs.Tracer.null} unless [trace_events]) *)
  spans : Obs.Span.t;
      (** the per-message span ledger ({!Obs.Span.null} unless spans were
          enabled): every measured roundtrip's per-stage durations fold
          bit-exactly to its entry in [rtts] *)
  invariants : string list;
      (** {!Invariant.conservation} violations found in [metrics] at
          quiesce, rendered one per entry; empty for a sound run *)
}

val layout_for :
  Config.t -> stack_kind -> ?layout:Config.layout -> unit -> Layout.Image.t
(** Build the client code image alone (for layout experiments). *)

val placement :
  Config.layout ->
  order:string list ->
  Layout.Image.unit_spec list ->
  Layout.Strategy.placement
(** Where the named strategy puts [units], given their invocation
    [order]: the placement of every image {!layout_for} and {!run} build. *)

val client_units :
  Config.t -> stack_kind -> Layout.Image.unit_spec list * string list
(** The exact units the client image of this configuration is built from,
    plus the invocation order over unit names the placement strategies
    consume (chain members folded to their fused unit).  A layout
    optimizer re-places these units and scores the placements through the
    incremental path; any such placement corresponds to a real image of
    this configuration — {!layout_for} builds the named strategies from
    precisely these units. *)

(** Everything a measurement run needs, in one value.  Construct with
    {!Spec.make} (which carries the historical defaults) and pass to
    {!run} / {!sample}; every harness — {!Profile}, {!Timeline}, {!Soak},
    {!Mflow}, bench, the CLI — goes through this record, so a new run
    parameter is one field here instead of an optional argument on every
    entry point. *)
module Spec : sig
  type t = {
    stack : stack_kind;
    config : Config.t;
    topology : Protolat_netsim.Topology.t;
        (** wiring between the two endpoints (default {!Protolat_netsim.Topology.pair},
            the historic direct link — bit-identical to the pre-fabric
            engine).  [star]/[line] with 2 hosts route every frame through
            the store-and-forward switch, adding per-hop latency and
            switch-stage spans.  {!run} rejects topologies with more than
            2 hosts (use {!Incast} for N-host fabric scenarios). *)
    seed : int;  (** startup-allocation perturbation (default 42) *)
    rounds : int;  (** measured roundtrips (default 24) *)
    warmup : int;  (** discarded leading roundtrips (default 8) *)
    params : Machine.Params.t;
    layout : Config.layout option;
        (** [None]: the version's natural layout ({!Config.layout_of}) *)
    rx_overhead_us : float;
        (** packet-classifier cost ahead of every receive, on both hosts
            (the paper's PIN/ALL results assume a zero-overhead
            classifier; default 0) *)
    fault : Protolat_netsim.Fault.spec option;
        (** seeded wire + device fault plan, installed after the
            connection is established (widens the drive window so
            backed-off retransmissions still finish every roundtrip) *)
    extra_meter : Protolat_xkernel.Meter.t option;
        (** composed with the engine meter on both hosts — used by the
            soak harness to record cold-path coverage in metered runs *)
    trace_events : bool;
        (** record timeline events (packets, timers, faults,
            retransmissions) into [result.events] for Perfetto export;
            {!run} passes this and [spans] to
            {!Protolat_netsim.Sim.record} once *)
    spans : bool;
        (** record the per-message span ledger into [result.spans]
            (default off).  Marks never touch simulation state, so results
            are bit-identical either way *)
  }

  val make :
    ?topology:Protolat_netsim.Topology.t ->
    ?seed:int ->
    ?rounds:int ->
    ?warmup:int ->
    ?params:Machine.Params.t ->
    ?layout:Config.layout ->
    ?rx_overhead_us:float ->
    ?fault:Protolat_netsim.Fault.spec ->
    ?extra_meter:Protolat_xkernel.Meter.t ->
    ?trace_events:bool ->
    ?spans:bool ->
    stack:stack_kind ->
    config:Config.t ->
    unit ->
    t
  (** Smart constructor with the historical engine defaults
      (seed 42, 24 rounds, 8 warmup, default machine params). *)

  val default : stack:stack_kind -> config:Config.t -> t
  (** [make ~stack ~config ()] — all defaults. *)

  val with_seed : int -> t -> t
  (** [with_seed s spec] is [spec] reseeded — how {!sample} and the sweep
      harnesses derive per-sample specs from one base spec. *)
end

val run : Spec.t -> run_result
(** One measurement run: establish the connection, [spec.warmup]
    roundtrips, then [spec.rounds] measured roundtrips.

    The engine's online simulation uses the warm-block fast path (a run
    of a slot's instructions on one i-cache line that is verifiably
    resident skips its instruction fetches and is credited their hits in
    one step) unless it is disabled via {!Machine.Blockcache.set_enabled}
    — results are bit-identical either way. *)

type throughput_result = {
  mbits_per_s : float;
  elapsed_us : float;
  client_cpu_pct : float;
  server_cpu_pct : float;
  segments : int;
}

val throughput :
  ?bytes:int ->
  ?params:Machine.Params.t ->
  ?topology:Protolat_netsim.Topology.t ->
  config:Config.t ->
  unit ->
  throughput_result
(** One-way bulk transfer over the TCP/IP stack: §4.1 verifies the
    techniques do not hurt throughput (the 10 Mb/s wire is the bottleneck)
    and §2.2.5 notes the §2.2 changes reduce CPU utilization. *)

type sample_set = {
  rtt : Protolat_util.Stats.summary;  (** over per-sample mean RTTs *)
  result : run_result;  (** the last sample's detailed result *)
}

val sample_seed : int -> int
(** Seed used for the [i]-th sample of a sample set (shared with
    {!Experiments.full_run}'s parallel fan-out so job counts do not change
    results). *)

val collect : run_result list -> sample_set
(** Aggregate per-seed runs (in sample order) into a sample set. *)

val sample : ?samples:int -> ?jobs:int -> Spec.t -> sample_set
(** The paper's protocol: several samples (10 for TCP/IP, 5 for RPC by
    default) of a long ping-pong run, each the base spec reseeded with
    {!sample_seed} (startup allocation state), reported as mean ± stddev.
    [jobs] (default 1) fans the independent seeded runs across that many
    domains; the aggregate is bit-identical at any job count. *)

(* The traced run ([--trace 1]): per-layer metrics and the layer ledger.

   Spans are recorded from this file only, around calls into public
   functions of each layer; the simulator itself is not instrumented.
   Two parts:

   - a probe battery, the same on every workload for a given seed, times
     each layer on its own (the per-layer metrics of BENCHMARK.json);
   - the workload's ledger: one pass over a prefix of its inputs, each
     input run once untraced and once inside a span (alternating which
     goes first), with its call time split into the layer terms the probes
     price and [other_ms], the part no probe accounts for.

   Spans stay in memory and are written at exit as trace-event JSON
   (loadable in Perfetto / chrome://tracing). *)

open Common
module P = Protolat
module M = Protolat_machine
module L = Protolat_layout
module T = Protolat_tcpip
module R = Protolat_rpc
module Ns = Protolat_netsim
module Xk = Protolat_xkernel

(* ----- spans ----------------------------------------------------------------- *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 at the root *)
  input : int;  (** workload input index, -1 for probes *)
  t0 : float;
  t1 : float;
}

let spans = ref []

let open_spans = ref []

let next_id = ref 0

(* [span name f] runs [f] inside a span and returns its result with the
   span's duration in seconds. *)
let span ?(input = -1) name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let t0 = now () in
  let close () =
    let t1 = now () in
    open_spans := List.tl !open_spans;
    spans := { id; name; parent; input; t0; t1 } :: !spans;
    t1 -. t0
  in
  match f () with
  | r -> (r, close ())
  | exception e ->
    ignore (close ());
    raise e

(* fastest of [reps] spans: the probe's estimate of the layer's cost *)
let best ?(reps = 3) name f =
  let r, s = span name f in
  let m = ref s in
  for _ = 2 to reps do
    m := Float.min !m (snd (span name f))
  done;
  (r, !m)

let self_times () =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self = s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let n, tot, slf =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (n + 1, tot +. s.t1 -. s.t0, slf +. self))
    !spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort (fun (_, (_, _, a)) (_, (_, _, b)) -> Float.compare b a)

let trace_events () =
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity !spans in
  let us t = (t -. origin) *. 1e6 in
  Json.Obj
    [ ( "traceEvents",
        Json.Arr
          (List.rev_map
             (fun s ->
               Json.Obj
                 [ ("name", str s.name); ("cat", str "perfbench"); ("ph", str "X");
                   ("ts", num (us s.t0)); ("dur", num ((s.t1 -. s.t0) *. 1e6));
                   ("pid", int 1); ("tid", int 1);
                   ( "args",
                     Json.Obj
                       [ ("id", int s.id); ("parent", int s.parent);
                         ("input", int s.input) ] ) ])
             !spans) );
      ("displayTimeUnit", str "ms") ]

(* ----- probes: the engine over the 12 paper cells --------------------------- *)

let mean xs = sum xs /. float_of_int (List.length xs)

let code_base = 0x10000

(* The placements Engine builds for each named layout (8 KB reference
   i-cache, 2 MB b-cache), from the same units and invocation order. *)
let placement units order = function
  | P.Config.Link_order ->
    L.Strategy.link_order ~base:code_base
      (List.sort
         (fun a b -> compare (L.Image.unit_name a) (L.Image.unit_name b))
         units)
  | P.Config.Bipartite ->
    L.Strategy.bipartite ~base:code_base ~icache_bytes:8192 ~order units
  | P.Config.Pessimal ->
    L.Strategy.pessimal ~base:code_base ~icache_bytes:8192
      ~bcache_bytes:(2 * 1024 * 1024) units
  | P.Config.Micro ->
    L.Strategy.micro_position ~base:code_base ~icache_bytes:8192 ~block_bytes:32
      ~ref_seq:order units
  | P.Config.Linear -> L.Strategy.invocation_order ~base:code_base ~order units

let strategy_name = function
  | P.Config.Link_order -> "link_order"
  | P.Config.Bipartite -> "bipartite"
  | P.Config.Pessimal -> "pessimal"
  | P.Config.Micro -> "micro_position"
  | P.Config.Linear -> "invocation_order"

let layout_key = function
  | P.Config.Link_order -> "link_order"
  | P.Config.Bipartite -> "bipartite"
  | P.Config.Pessimal -> "pessimal"
  | P.Config.Micro -> "micro"
  | P.Config.Linear -> "linear"

let all_layouts =
  P.Config.[ Link_order; Bipartite; Pessimal; Micro; Linear ]

(* Unmetered ping-pong of [rounds] roundtrips on the same stack and
   options: protocol logic and the event heap, no machine model.  Returns
   the events processed up to the last roundtrip. *)
let bare_pingpong stack (config : P.Config.t) ~rounds =
  let topology = Ns.Topology.pair () in
  let sim, completed, start =
    match stack with
    | P.Engine.Tcpip ->
      let pair =
        T.Stack.pair_of_net
          (T.Stack.make_net ~opts_for:(fun _ -> config.P.Config.opts) ~topology ())
      in
      let c, _ = T.Stack.establish pair ~rounds in
      ( pair.T.Stack.sim,
        (fun () -> T.Tcptest.rounds_completed c),
        fun () -> T.Tcptest.start c )
    | P.Engine.Rpc ->
      let pair =
        R.Rstack.pair_of_net
          (R.Rstack.make_net
             ~opts_for:(fun i -> if i = 0 then config.P.Config.opts else T.Opts.improved)
             ~topology ())
      in
      let c, _ = R.Rstack.make_tests pair ~rounds in
      ( pair.R.Rstack.sim,
        (fun () -> R.Xrpctest.rounds_completed c),
        fun () -> R.Xrpctest.start c )
  in
  start ();
  let events = ref 0 in
  while completed () < rounds && Ns.Sim.step sim do
    incr events
  done;
  if completed () < rounds then failwith "bare ping-pong stalled";
  !events

type cell_probe = {
  stack : P.Engine.stack_kind;
  version : P.Config.version;
  fixed_ms : float;
  rt_us : float;
  bare_rt_us : float;
  events_per_rt : float;
  replay_ms : float;
  segment_ms : float;
  trace_instrs : int;
  fast_frac : float;
  image_ms : float;
}

let short_rounds = 24

let long_rounds = 96

(* a bare roundtrip is ~30x cheaper than a metered one, so its slope
   needs a longer run to stand clear of timer noise *)
let bare_long_rounds = 1000

let probe_cell ~seed (stack, version) =
  let config = P.Config.make version in
  let tag = P.Engine.stack_name stack ^ "/" ^ P.Config.version_name version in
  let spec = P.Engine.Spec.make ~seed ~rounds:short_rounds ~stack ~config () in
  let warm = spec.P.Engine.Spec.warmup in
  let before = M.Blockcache.totals () in
  let r, t_short = best ("core.engine.run24 " ^ tag) (fun () -> P.Engine.run spec) in
  let after = M.Blockcache.totals () in
  let _, t_long =
    best ("core.engine.run96 " ^ tag) (fun () ->
        P.Engine.run { spec with P.Engine.Spec.rounds = long_rounds })
  in
  let extra = float_of_int (long_rounds - short_rounds) in
  let rt_us = (t_long -. t_short) /. extra *. 1e6 in
  let bare n = best ("bare.pingpong " ^ tag) (fun () -> bare_pingpong stack config ~rounds:n) in
  let ev_short, b_short = bare (short_rounds + warm) in
  let ev_long, b_long = bare bare_long_rounds in
  let bare_extra = float_of_int (bare_long_rounds - short_rounds - warm) in
  let params = spec.P.Engine.Spec.params in
  let trace = r.P.Engine.trace in
  let _, replay_s =
    best "machine.replay" (fun () -> M.Perf.cold_and_steady params trace)
  in
  let _, segment_s = best "machine.segment" (fun () -> M.Blockcache.segment params trace) in
  let units, order = P.Engine.client_units config stack in
  let _, image_s =
    best "layout.image_build" (fun () ->
        L.Image.build (placement units order (P.Config.layout_of version)))
  in
  let fast = after.M.Blockcache.t_fast_runs - before.M.Blockcache.t_fast_runs in
  let slow = after.M.Blockcache.t_slow_runs - before.M.Blockcache.t_slow_runs in
  { stack; version;
    fixed_ms = (t_short *. 1e3) -. (float_of_int (short_rounds + warm) *. rt_us /. 1e3);
    rt_us;
    bare_rt_us = (b_long -. b_short) /. bare_extra *. 1e6;
    events_per_rt = float_of_int (ev_long - ev_short) /. bare_extra;
    replay_ms = replay_s *. 1e3;
    segment_ms = segment_s *. 1e3;
    trace_instrs = M.Trace.length trace;
    fast_frac = float_of_int fast /. float_of_int (max 1 (fast + slow));
    image_ms = image_s *. 1e3 }

(* ----- probes: layout, search, replay ------------------------------------- *)

type layout_probe = {
  strategy_ms : (string * float) list;
  attrib_ms : float;
  remap_us : float;
  rebind_us : float;
  steady_us : (string * float) list;
  base_run_ms : float;
  runs_per_s : float;
}

(* What one layout-search call does besides candidate evaluation, per
   stack: the base run, every named strategy, the conflict profile; and
   one candidate's evaluation split into remap, rebind and replay. *)
let probe_layout stack =
  let config = P.Config.make P.Config.Clo in
  let params = M.Params.default in
  let base, base_s =
    best "core.search.base_run" (fun () ->
        P.Engine.run
          (P.Engine.Spec.make ~stack ~config
             ~layout:(P.Config.layout_of P.Config.Clo) ()))
  in
  let units, order = P.Engine.client_units config stack in
  let strategy_ms =
    List.map
      (fun l ->
        let _, s =
          best ("layout.strategy." ^ strategy_name l) (fun () ->
              placement units order l)
        in
        (strategy_name l, s *. 1e3))
      all_layouts
  in
  let trace = base.P.Engine.trace in
  let _, attrib_s =
    best "obs.attrib_profile" (fun () ->
        Protolat_obs.Attrib.profile params base.P.Engine.client_image trace)
  in
  let bc0 = M.Blockcache.segment params trace in
  let issue_cycles = M.Cpu.issue_cycles params trace in
  let instr_cycles = M.Cpu.perfect_memory_cycles params trace in
  let scratch = M.Memsys.create params in
  let per_layout =
    List.map
      (fun l ->
        let img, _ =
          span "layout.image_for" (fun () -> P.Engine.layout_for config stack ~layout:l ())
        in
        let map = L.Image.pc_map base.P.Engine.client_image img in
        let trace', remap_s =
          best "machine.remap" (fun () -> M.Trace.map_pcs map trace)
        in
        let _, rebind_s =
          best "machine.rebind" (fun () -> M.Blockcache.rebind bc0 trace')
        in
        let steady_s =
          List.fold_left Float.min infinity
            (List.init 3 (fun _ ->
                 let bc = M.Blockcache.rebind bc0 trace' in
                 snd
                   (span "machine.steady_bc" (fun () ->
                        M.Perf.steady_scratch ~warmup:1 ~scratch ~issue_cycles
                          ~instr_cycles params bc))))
        in
        (layout_key l, remap_s, rebind_s, steady_s))
      all_layouts
  in
  let bc = M.Blockcache.segment params trace in
  let m = M.Memsys.create params in
  M.Blockcache.replay bc m;
  let reps = 100 in
  let (), replay_s =
    span "machine.replay_loop" (fun () ->
        for _ = 1 to reps do
          M.Blockcache.replay bc m
        done)
  in
  { strategy_ms;
    attrib_ms = attrib_s *. 1e3;
    remap_us = mean (List.map (fun (_, r, _, _) -> r *. 1e6) per_layout);
    rebind_us = mean (List.map (fun (_, _, r, _) -> r *. 1e6) per_layout);
    steady_us = List.map (fun (k, _, _, s) -> (k, s *. 1e6)) per_layout;
    base_run_ms = base_s *. 1e3;
    runs_per_s = float_of_int (reps * M.Blockcache.n_runs bc) /. replay_s }

(* ----- probes: fabric and multi-flow --------------------------------------- *)

let probe_dpool () =
  let jobs = Workload.incast_jobs () in
  let times =
    List.init 100 (fun _ ->
        snd (span "util.dpool_run" (fun () ->
                 Protolat_util.Dpool.run ~jobs [ (fun () -> ()); (fun () -> ()) ])))
  in
  median times *. 1e6

let probe_incast ~seed =
  let seed = P.Incast.seed_for seed 0 in
  let fan_in = Workload.incast_fan_in in
  let c, t_jobs =
    best "core.incast.cell" (fun () ->
        P.Incast.run_cell ~jobs:(Workload.incast_jobs ()) ~fan_in ~seed ())
  in
  let _, t_1 =
    best "core.incast.cell_jobs1" (fun () -> P.Incast.run_cell ~jobs:1 ~fan_in ~seed ())
  in
  (c, t_jobs, t_1)

(* Resolve cost at the cell's occupancy, every lookup missing the
   one-entry cache (round-robin over the live keys). *)
let probe_map_resolve ~occupancy =
  let m = Xk.Map.create () in
  let keys = Array.init occupancy (fun k -> Printf.sprintf "conn%06d" k) in
  Array.iteri (fun i k -> Xk.Map.bind m k i) keys;
  let n = 200_000 in
  let sink = ref 0 in
  let _, s =
    best "xkernel.map.resolve" (fun () ->
        for i = 1 to n do
          match Xk.Map.resolve m keys.(i mod occupancy) with
          | Some v -> sink := !sink + v
          | None -> ()
        done)
  in
  ignore (Sys.opaque_identity !sink);
  s /. float_of_int n *. 1e9

(* ----- the battery ----------------------------------------------------------- *)

type probes = {
  cells : cell_probe list;
  layouts : (P.Engine.stack_kind * layout_probe) list;
  memsys_ms : float;
  search : P.Layoutsearch.t;
  search_s : float;
  dpool_us : float;
  incast : P.Incast.cell;
  incast_jobs_ms : float;
  incast_1_ms : float;
  mflow : P.Mflow.cell;
  resolve_ns : float;
}

let run_probes ~seed =
  let cells =
    List.mapi
      (fun i c -> probe_cell ~seed:(P.Engine.sample_seed ((seed * 100_000) + i)) c)
      (Array.to_list Workload.paper_cells)
  in
  let layouts =
    List.map (fun s -> (s, probe_layout s)) [ P.Engine.Tcpip; P.Engine.Rpc ]
  in
  let _, memsys_s =
    best "machine.memsys_create" (fun () -> M.Memsys.create M.Params.default)
  in
  let search, search_s =
    span "core.search.run" (fun () ->
        P.Layoutsearch.run ~budget:Workload.search_budget ~seeds:1 ~geometries:[ 8 ]
          ~stacks:[ P.Engine.Tcpip ] ~jobs:1 ())
  in
  let dpool_us = probe_dpool () in
  let incast, t_jobs, t_1 = probe_incast ~seed in
  let mflow =
    fst
      (span "core.mflow.cell" (fun () ->
           match Workload.input Workload.Mflow_churn ~seed 0 with
           | Workload.Mflow spec -> P.Mflow.run_cell ~flows:Workload.mflow_flows spec
           | _ -> assert false))
  in
  { cells; layouts; memsys_ms = memsys_s *. 1e3; search; search_s; dpool_us;
    incast; incast_jobs_ms = t_jobs *. 1e3; incast_1_ms = t_1 *. 1e3; mflow;
    resolve_ns = probe_map_resolve ~occupancy:Workload.mflow_flows }

let cell_of p stack version =
  List.find (fun c -> c.stack = stack && c.version = version) p.cells

let layout_of p stack = List.assoc stack p.layouts

let search_eval p =
  let cells = p.search.P.Layoutsearch.cells in
  let evals = List.fold_left (fun a c -> a + c.P.Layoutsearch.evals) 0 cells in
  let eval_s = sum (List.map (fun c -> c.P.Layoutsearch.eval_s) cells) in
  (eval_s /. float_of_int (max 1 evals) *. 1e6, eval_s /. p.search_s)

(* ----- the workload's ledger ----------------------------------------------- *)

(* Layer terms of one traced call, in ms, priced by the probes; the call
   minus their sum is [other_ms]. *)
let terms p input result =
  match (input, result) with
  | Workload.Engine_run spec, Workload.Engine_result _ ->
    let c = cell_of p spec.P.Engine.Spec.stack spec.P.Engine.Spec.config.P.Config.version in
    let rts = float_of_int (spec.P.Engine.Spec.rounds + spec.P.Engine.Spec.warmup) in
    [ ("protocol (bare roundtrips)", rts *. c.bare_rt_us /. 1e3);
      ("meter + online memory model", rts *. (c.rt_us -. c.bare_rt_us) /. 1e3);
      ("offline replay", c.replay_ms);
      ("memsys create x2", 2.0 *. p.memsys_ms) ]
  | Workload.Search (stack, _), Workload.Search_result t ->
    let l = layout_of p stack in
    [ ("candidate evaluation",
       sum (List.map (fun c -> c.P.Layoutsearch.eval_s) t.P.Layoutsearch.cells) *. 1e3);
      ("base run", l.base_run_ms);
      ("named strategies", sum (List.map snd l.strategy_ms));
      ("attrib profile", l.attrib_ms) ]
  | Workload.Incast _, Workload.Incast_result _ ->
    (* the rest is domain fan-out: Dpool runs only on epochs with two or
       more busy shards, which the cell does not count, so
       epochs x util.dpool_run_us is an upper bound, not a term *)
    [ ("simulation (cell at jobs 1)", p.incast_1_ms) ]
  | Workload.Mflow _, Workload.Mflow_result c ->
    let tcp = cell_of p P.Engine.Tcpip P.Config.All in
    [ ("protocol (bare roundtrips)",
       float_of_int c.P.Mflow.requests *. tcp.bare_rt_us /. 1e3);
      ("demux resolves",
       float_of_int c.P.Mflow.server_map.P.Mflow.resolves *. p.resolve_ns /. 1e6) ]
  | _ -> []

let retransmits = function
  | Workload.Engine_result r -> r.P.Engine.retransmissions
  | Workload.Search_result _ -> 0
  | Workload.Incast_result c -> c.P.Incast.retransmits
  | Workload.Mflow_result c -> c.P.Mflow.retransmits

type traced = {
  untraced_ms : float;
  traced_ms : float;
  terms : (string * float) list;
  minor_kw : float;
  major_gcs : int;
  retx : int;
}

(* Run one input untraced and traced, alternating which goes first, each
   from an empty minor heap as in a pass; check the traced output as a
   pass would, and that the two runs agree.  The terms are filled in once
   the probes have run, and the full check is returned for after the
   timing, as in a pass. *)
let trace_input w i input =
  let untraced () =
    Gc.minor ();
    let t0 = now () in
    let r = Workload.execute input in
    (r, (now () -. t0) *. 1e3)
  in
  let traced () =
    Gc.minor ();
    let g0 = Gc.quick_stat () in
    let r, s =
      span ~input:i ("call " ^ Workload.name w) (fun () -> Workload.execute input)
    in
    let g1 = Gc.quick_stat () in
    ( r,
      s *. 1e3,
      g1.Gc.minor_words -. g0.Gc.minor_words,
      g1.Gc.major_collections - g0.Gc.major_collections )
  in
  try
    let (ru, u), (r, t, minor, major) =
      if i mod 2 = 0 then
        let u = untraced () in
        (u, traced ())
      else
        let tr = traced () in
        (untraced (), tr)
    in
    let failures =
      Workload.failures input r
      @
      if Workload.digest ru <> Workload.digest r then
        [ "output differs between untraced and traced call" ]
      else []
    in
    ( Some
        ( { untraced_ms = u; traced_ms = t; terms = []; minor_kw = minor /. 1e3;
            major_gcs = major; retx = retransmits r },
          r ),
      failures )
  with e -> (None, [ "raised " ^ Printexc.to_string e ])

(* ----- entry point ---------------------------------------------------------- *)

(* The probes price each term by its fastest repetition, so the ledger
   splits each input's faster run: on a host whose speed drifts, that keeps
   the call and its terms comparable. *)
let fastest_ms t = Float.min t.traced_ms t.untraced_ms

let metric_list p (ts : traced list) =
  let cells = p.cells in
  let stack_mean s f = mean (List.map f (List.filter (fun c -> c.stack = s) cells)) in
  let layouts = List.map snd p.layouts in
  let lmean f = mean (List.map f layouts) in
  let eval_us, eval_frac = search_eval p in
  let call = median (List.map (fun t -> t.traced_ms) ts) in
  let untraced = median (List.map (fun t -> t.untraced_ms) ts) in
  let attributed = mean (List.map (fun t -> sum (List.map snd t.terms)) ts) in
  let fastest = mean (List.map fastest_ms ts) in
  let map = p.mflow.P.Mflow.server_map in
  let per_call f = mean (List.map f ts) in
  [ ("core.engine.fixed_ms", mean (List.map (fun c -> c.fixed_ms) cells), "ms");
    ("core.engine.rt_us", mean (List.map (fun c -> c.rt_us) cells), "us");
    ("core.engine.meter_rt_us",
     mean (List.map (fun c -> c.rt_us -. c.bare_rt_us) cells), "us");
    ("tcpip.bare_rt_us", stack_mean P.Engine.Tcpip (fun c -> c.bare_rt_us), "us");
    ("rpc.bare_rt_us", stack_mean P.Engine.Rpc (fun c -> c.bare_rt_us), "us");
    ("netsim.events_per_rt", mean (List.map (fun c -> c.events_per_rt) cells), "count");
    ("netsim.event_ns",
     mean (List.map (fun c -> c.bare_rt_us *. 1e3 /. c.events_per_rt) cells), "ns");
    ("machine.replay_ms", mean (List.map (fun c -> c.replay_ms) cells), "ms");
    ("machine.segment_ms", mean (List.map (fun c -> c.segment_ms) cells), "ms");
    ("machine.memsys_create_ms", p.memsys_ms, "ms");
    ("machine.trace_instrs",
     mean (List.map (fun c -> float_of_int c.trace_instrs) cells), "count");
    ("machine.fast_run_frac", mean (List.map (fun c -> c.fast_frac) cells), "fraction");
    ("machine.remap_us", lmean (fun l -> l.remap_us), "us");
    ("machine.rebind_us", lmean (fun l -> l.rebind_us), "us") ]
  @ List.map
      (fun l ->
        let k = layout_key l in
        ("machine.steady_bc_us." ^ k, lmean (fun p -> List.assoc k p.steady_us), "us"))
      all_layouts
  @ [ ("machine.replay_runs_per_s", lmean (fun l -> l.runs_per_s), "1/s");
      ("core.search.eval_us", eval_us, "us");
      ("core.search.eval_frac", eval_frac, "fraction");
      ("layout.image_build_ms", mean (List.map (fun c -> c.image_ms) cells), "ms") ]
  @ List.map
      (fun l ->
        let k = strategy_name l in
        ("layout.strategy_ms." ^ k, lmean (fun p -> List.assoc k p.strategy_ms), "ms"))
      all_layouts
  @ [ ("obs.attrib_profile_ms", lmean (fun l -> l.attrib_ms), "ms");
      ("util.dpool_run_us", p.dpool_us, "us");
      ("core.incast.epochs", float_of_int p.incast.P.Incast.epochs, "count");
      ("core.incast.epoch_us",
       p.incast_jobs_ms *. 1e3 /. float_of_int (max 1 p.incast.P.Incast.epochs), "us");
      ("core.incast.jobs1_ms", p.incast_1_ms, "ms");
      ("netsim.switch.queue_drops", float_of_int p.incast.P.Incast.queue_drops, "count");
      ("netsim.switch.queue_peak", float_of_int p.incast.P.Incast.queue_peak, "count");
      ("xkernel.map.hit_rate", P.Mflow.hit_rate map, "fraction");
      ("xkernel.map.compares_per_resolve", P.Mflow.compares_per_resolve map, "count");
      ("xkernel.map.resolve_ns", p.resolve_ns, "ns");
      ("tcpip.conns_per_call", float_of_int p.mflow.P.Mflow.conns, "count");
      ("netsim.timer_high_water", float_of_int p.mflow.P.Mflow.timer_high_water, "count");
      ("tcpip.retransmits_per_call", per_call (fun t -> float_of_int t.retx), "count");
      ("gc.minor_kw_per_call", per_call (fun t -> t.minor_kw), "kw");
      ("gc.major_gcs_per_call", per_call (fun t -> float_of_int t.major_gcs), "count");
      ("ledger.call_ms", call, "ms");
      ("ledger.untraced_call_ms", untraced, "ms");
      ("ledger.overhead_pct", (call -. untraced) /. untraced *. 100.0, "%");
      ("ledger.attributed_ms", attributed, "ms");
      ("other_ms", fastest -. attributed, "ms") ]

let print_ledger w (ts : traced list) =
  let call = mean (List.map fastest_ms ts) in
  Printf.printf "ledger %s: %d inputs, mean of each one's faster run %.3f ms\n"
    (Workload.name w) (List.length ts) call;
  let names = List.map fst (List.hd ts).terms in
  List.iter
    (fun k ->
      let v = mean (List.map (fun t -> List.assoc k t.terms) ts) in
      Printf.printf "  %-30s %12.3f ms %6.1f%%\n" k v (100.0 *. v /. call))
    names;
  let other = call -. mean (List.map (fun t -> sum (List.map snd t.terms)) ts) in
  Printf.printf "  %-30s %12.3f ms %6.1f%%\n" "other" other (100.0 *. other /. call)

let main w ~seed ~n ~dir : Run.outcome =
  mkdir_p dir;
  let k = max 2 ((n + 9) / 10) in
  let inputs = Workload.inputs w ~seed ~n:(min n k) in
  ignore (span "setup" (fun () -> Workload.setup w));
  let results = Array.mapi (trace_input w) inputs in
  let p = fst (span "probes" (fun () -> run_probes ~seed)) in
  let results =
    Array.to_list
      (Array.mapi
         (fun i (t, fs) ->
           match t with
           | None -> (None, fs)
           | Some (t, r) ->
             let full =
               match Workload.full_check r with Some check -> check () | None -> []
             in
             (Some { t with terms = terms p inputs.(i) r }, fs @ full))
         results)
  in
  List.iteri
    (fun i (_, fs) ->
      if fs <> [] then Printf.printf "  input %d: %s\n" i (String.concat "; " fs))
    results;
  let failed = List.length (List.filter (fun (_, fs) -> fs <> []) results) in
  let ts = List.filter_map fst results in
  if ts = [] then failwith "every traced input raised";
  let metrics = metric_list p ts in
  print_ledger w ts;
  Printf.printf "spans by self time (count, total ms, self ms):\n";
  List.iter
    (fun (name, (c, tot, self)) ->
      Printf.printf "  %-44s %5d %12.3f %12.3f\n" name c (tot *. 1e3) (self *. 1e3))
    (self_times ());
  List.iter (fun (k, v, u) -> Printf.printf "  %-36s %16.4f %s\n" k v u) metrics;
  let file =
    Filename.concat dir
      (Printf.sprintf "%s-s%d-%.0f-%d.trace.json" (Workload.name w) seed
         (Unix.time ()) (Unix.getpid ()))
  in
  write_file file (to_string (trace_events ()));
  Printf.printf "trace events: %s\n" file;
  Printf.printf "tracing overhead: call p50 %.3f ms traced vs %.3f ms untraced\n"
    (median (List.map (fun t -> t.traced_ms) ts))
    (median (List.map (fun t -> t.untraced_ms) ts));
  { Run.correct = failed = 0; attempted = List.length results; failed; metrics }

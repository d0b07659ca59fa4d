(* Warm-block fast path: differential tests of the memoized basic-block
   simulation (engine emission and Blockcache replay, d-side memo
   included) against the per-instruction reference — whole engine runs
   with the fast path switched off, and [Memsys.run] for every [Perf]
   entry point — plus generation-tag invalidation and counter semantics
   and the incremental layout sweep. *)

module P = Protolat
module M = Protolat_machine
module L = Protolat_layout
module Ns = Protolat_netsim
module Obs = Protolat_obs
module Instr = M.Instr
module Trace = M.Trace

let with_fastpath b f =
  let was = M.Blockcache.enabled () in
  M.Blockcache.set_enabled b;
  Fun.protect ~finally:(fun () -> M.Blockcache.set_enabled was) f

let run_spec ?seed ?layout stack v =
  P.Engine.run
    (P.Engine.Spec.make ?seed ?layout ~stack ~config:(P.Config.make v) ())

let check_report name (a : M.Perf.report) (b : M.Perf.report) =
  Alcotest.(check bool) (name ^ ": reports bit-identical") true (a = b)

(* A steady-state client trace collected on the reference path. *)
let reference_trace ?seed stack v =
  (with_fastpath false (fun () -> run_spec ?seed stack v)).P.Engine.trace

(* The thrashing geometries: a 2 KB i-cache, where most runs stay on the
   slow path, and a 512 B d-cache, where most d-memo summaries are
   invalidated. *)
let icache_2k = { M.Params.default with M.Params.icache_bytes = 2048 }

let dcache_512 = { M.Params.default with M.Params.dcache_bytes = 512 }

let geometries =
  [ ("default", M.Params.default);
    ("2KB i-cache", icache_2k);
    ("512B d-cache", dcache_512) ]

(* ----- engine: fast path vs reference -------------------------------------- *)

(* Every observable of a run — per-roundtrip RTTs, cold/steady replay
   reports, the unified metrics dump, per-function attribution of the
   collected trace and the span ledger — must be byte-identical with the
   fast path (d-memo included) on and with the per-instruction reference
   path it replaces: over both stacks and every version (hence every
   layout), a lossy run that retransmits, a switched 2-host topology, a
   run recording spans, and a thrashing i-cache geometry. *)
let check_engine_onoff name (spec : P.Engine.Spec.t) =
  let on = with_fastpath true (fun () -> P.Engine.run spec) in
  let off = with_fastpath false (fun () -> P.Engine.run spec) in
  Alcotest.(check bool) (name ^ ": rtts identical") true
    (on.P.Engine.rtts = off.P.Engine.rtts);
  Alcotest.(check int) (name ^ ": retransmissions identical")
    off.P.Engine.retransmissions on.P.Engine.retransmissions;
  check_report (name ^ " steady") on.P.Engine.steady off.P.Engine.steady;
  check_report (name ^ " cold") on.P.Engine.cold off.P.Engine.cold;
  Alcotest.(check string) (name ^ ": metrics json identical")
    (Obs.Metrics.to_json off.P.Engine.metrics)
    (Obs.Metrics.to_json on.P.Engine.metrics);
  let attrib (r : P.Engine.run_result) =
    Obs.Attrib.profile spec.P.Engine.Spec.params r.P.Engine.client_image
      r.P.Engine.trace
  in
  Alcotest.(check bool) (name ^ ": attribution identical") true
    (attrib on = attrib off);
  let messages (r : P.Engine.run_result) = Obs.Span.messages r.P.Engine.spans in
  Alcotest.(check bool) (name ^ ": span ledger identical") true
    (messages on = messages off);
  off

let test_engine_onoff () =
  let spec ?seed ?params ?fault ?topology ?spans stack v =
    P.Engine.Spec.make ?seed ?params ?fault ?topology ?spans ~stack
      ~config:(P.Config.make v) ()
  in
  List.iter
    (fun (stack, seed) ->
      List.iter
        (fun v ->
          let name =
            Printf.sprintf "%s/%s seed=%d" (P.Engine.stack_name stack)
              (P.Config.version_name v) seed
          in
          ignore (check_engine_onoff name (spec ~seed stack v)))
        P.Paper.version_order)
    [ (P.Engine.Tcpip, 42); (P.Engine.Rpc, 7) ];
  let lossy =
    check_engine_onoff "tcpip/ALL 10% loss"
      (spec ~seed:11
         ~fault:{ Ns.Fault.clean with Ns.Fault.loss_pct = 10.0 }
         P.Engine.Tcpip P.Config.All)
  in
  Alcotest.(check bool) "the lossy run retransmits" true
    (lossy.P.Engine.retransmissions > 0);
  ignore
    (check_engine_onoff "tcpip/STD star:2"
       (spec ~topology:(Ns.Topology.star ~hosts:2 ()) P.Engine.Tcpip
          P.Config.Std));
  let spanned =
    check_engine_onoff "rpc/OUT spans on"
      (spec ~seed:3 ~spans:true P.Engine.Rpc P.Config.Out)
  in
  Alcotest.(check int) "the spans-on run records every roundtrip"
    (List.length spanned.P.Engine.rtts)
    (Array.length (Obs.Span.messages spanned.P.Engine.spans));
  ignore
    (check_engine_onoff "tcpip/CLO 2KB i-cache"
       (spec ~seed:5 ~params:icache_2k P.Engine.Tcpip P.Config.Clo))

(* The d-side memo has no switch of its own — it runs whenever the fast
   path does — so its engine-level check is the fast path on against the
   reference, plus proof that the memo did charge loads in the steady
   replay the engine reports, so the match covers the memo's work. *)
let test_engine_dmemo_onoff () =
  let off =
    check_engine_onoff "tcpip/ALL seed=11"
      (P.Engine.Spec.make ~seed:11 ~stack:P.Engine.Tcpip
         ~config:(P.Config.make P.Config.All) ())
  in
  with_fastpath true (fun () ->
      let bc = M.Blockcache.segment M.Params.default off.P.Engine.trace in
      check_report "steady_bc vs engine steady" off.P.Engine.steady
        (M.Perf.steady_bc M.Params.default bc);
      Alcotest.(check bool) "d-memo engaged in the steady replay" true
        (M.Blockcache.dmemo_loads bc > 0))

(* ----- Perf entry points vs Memsys.run ------------------------------------- *)

(* The reference every [Perf] entry point is checked against: [warmup]
   whole-trace [Memsys.run] replays (none for a cold report), statistics
   reset, one measured [Memsys.run], and the CPU-model derivation written
   out here independently of [Perf]. *)
let reference_report ?(warmup = 0) p trace =
  let m = M.Memsys.create p in
  for _ = 1 to warmup do
    ignore (M.Memsys.run m trace)
  done;
  M.Memsys.reset_stats m;
  ignore (M.Memsys.run m trace);
  let stats = M.Memsys.stats m in
  let length = Trace.length trace in
  let instr_cycles = M.Cpu.perfect_memory_cycles p trace in
  let total_cycles = instr_cycles +. stats.M.Memsys.stall_cycles in
  let flen = float_of_int (max length 1) in
  { M.Perf.length;
    stats;
    issue_cycles = M.Cpu.issue_cycles p trace;
    instr_cycles;
    total_cycles;
    icpi = instr_cycles /. flen;
    mcpi = stats.M.Memsys.stall_cycles /. flen;
    cpi = total_cycles /. flen;
    time_us = M.Params.cycles_to_us p total_cycles }

let test_perf_entry_points () =
  let traces =
    [ ("tcpip/OUT", reference_trace P.Engine.Tcpip P.Config.Out);
      ("rpc/CLO", reference_trace ~seed:3 P.Engine.Rpc P.Config.Clo) ]
  in
  with_fastpath true (fun () ->
      List.iter
        (fun (tname, trace) ->
          List.iter
            (fun (gname, p) ->
              let name = tname ^ " " ^ gname in
              let cold = reference_report p trace in
              let steady1 = reference_report ~warmup:1 p trace in
              let steady = reference_report ~warmup:3 p trace in
              check_report (name ^ " cold") cold (M.Perf.cold p trace);
              let bc = M.Blockcache.segment p trace in
              check_report (name ^ " cold_bc") cold (M.Perf.cold_bc p bc);
              check_report (name ^ " steady") steady (M.Perf.steady p trace);
              check_report (name ^ " steady_bc") steady
                (M.Perf.steady_bc p bc);
              Alcotest.(check bool) (name ^ ": some runs went fast") true
                (M.Blockcache.fast_runs bc > 0);
              check_report (name ^ " steady_bc warmup 1 on a rebind") steady1
                (M.Perf.steady_bc ~warmup:1 p (M.Blockcache.rebind bc trace));
              let c, s = M.Perf.cold_and_steady p trace in
              check_report (name ^ " cold_and_steady cold") cold c;
              check_report (name ^ " cold_and_steady steady") steady s;
              (* a dirty scratch hierarchy: steady_scratch must clear it *)
              let scratch = M.Memsys.create p in
              ignore (M.Memsys.run scratch trace);
              let issue_cycles = M.Cpu.issue_cycles p trace in
              let instr_cycles = M.Cpu.perfect_memory_cycles p trace in
              List.iter
                (fun (warmup, want) ->
                  check_report
                    (Printf.sprintf "%s steady_scratch warmup %d" name warmup)
                    want
                    (M.Perf.steady_scratch ~warmup ~scratch ~issue_cycles
                       ~instr_cycles p
                       (M.Blockcache.rebind bc trace)))
                [ (1, steady1); (3, steady) ])
            geometries)
        traces)

(* ----- Blockcache: replay equivalence on real traces ----------------------- *)

let steady_trace () = reference_trace P.Engine.Tcpip P.Config.Out

(* Replay [trace] four times through a fresh segmentation and, side by
   side, through [Memsys.run]: the statistics must agree after every
   replay.  Returns the segmentation, whose counters show which layers
   engaged. *)
let replay_matches_reference name params trace =
  let bc = M.Blockcache.segment params trace in
  let fast = M.Memsys.create params in
  let slow = M.Memsys.create params in
  with_fastpath true (fun () ->
      for i = 1 to 4 do
        M.Blockcache.replay bc fast;
        ignore (M.Memsys.run slow trace);
        Alcotest.(check bool)
          (Printf.sprintf "%s: stats equal after replay %d" name i)
          true
          (M.Memsys.stats fast = M.Memsys.stats slow)
      done);
  bc

(* On the default geometry and on a thrashing 2 KB i-cache, where most
   runs stay on the slow path. *)
let test_blockcache_replay_equiv () =
  let trace = steady_trace () in
  List.iter
    (fun (label, params) ->
      let bc = replay_matches_reference label params trace in
      Alcotest.(check bool) (label ^ ": some runs went fast") true
        (M.Blockcache.fast_runs bc > 0))
    [ ("default geometry", M.Params.default);
      ("2KB i-cache (thrashing)", icache_2k) ]

(* The d-cache memo across stacks, seeds and the thrashing d-cache: on the
   default geometry it must actually skip loads. *)
let test_dmemo_engaged () =
  List.iter
    (fun (stack, v, seed) ->
      let trace = reference_trace ~seed stack v in
      List.iter
        (fun (glabel, params) ->
          let name =
            Printf.sprintf "%s/%s seed=%d %s" (P.Engine.stack_name stack)
              (P.Config.version_name v) seed glabel
          in
          let bc = replay_matches_reference name params trace in
          if params == M.Params.default then
            Alcotest.(check bool) (name ^ ": d-memo engaged") true
              (M.Blockcache.dmemo_loads bc > 0))
        [ ("default", M.Params.default); ("512B d-cache", dcache_512) ])
    [ (P.Engine.Tcpip, P.Config.Std, 42);
      (P.Engine.Tcpip, P.Config.Out, 7);
      (P.Engine.Rpc, P.Config.Clo, 3) ]

(* Disabled, the block cache must take the reference loop for every run. *)
let test_blockcache_disabled_all_slow () =
  let trace = steady_trace () in
  let bc = M.Blockcache.segment M.Params.default trace in
  let m = M.Memsys.create M.Params.default in
  with_fastpath false (fun () ->
      M.Blockcache.replay bc m;
      M.Blockcache.replay bc m);
  Alcotest.(check int) "no fast runs when disabled" 0
    (M.Blockcache.fast_runs bc);
  Alcotest.(check int) "all runs slow" (2 * M.Blockcache.n_runs bc)
    (M.Blockcache.slow_runs bc)

(* ----- generation tags ----------------------------------------------------- *)

let test_cache_generation_tags () =
  let c = M.Cache.create ~name:"gen" ~size_bytes:1024 ~block_bytes:32 in
  let line = M.Cache.line_of c 0x4000 in
  let set = M.Cache.set_of_line c line in
  let g0 = M.Cache.generation c set in
  ignore (M.Cache.access c 0x4000);
  let g1 = M.Cache.generation c set in
  Alcotest.(check bool) "fill bumps the set's generation" true (g1 > g0);
  Alcotest.(check bool) "line resident after fill" true
    (M.Cache.resident_line c line);
  ignore (M.Cache.access c 0x4004);
  Alcotest.(check int) "hit leaves the generation unchanged" g1
    (M.Cache.generation c set);
  (* conflicting line in the same set: eviction bumps again *)
  ignore (M.Cache.access c (0x4000 + 1024));
  Alcotest.(check bool) "eviction bumps the generation" true
    (M.Cache.generation c set > g1);
  Alcotest.(check bool) "old line no longer resident" false
    (M.Cache.resident_line c line);
  ignore (M.Cache.access c 0x4000);
  let g2 = M.Cache.generation c set in
  M.Cache.invalidate_all c;
  Alcotest.(check bool) "invalidate_all bumps occupied sets" true
    (M.Cache.generation c set > g2);
  Alcotest.(check bool) "not resident after invalidate" false
    (M.Cache.resident_line c line)

let test_cache_credit_hits () =
  let c = M.Cache.create ~name:"credit" ~size_bytes:1024 ~block_bytes:32 in
  ignore (M.Cache.access c 0x100);
  (* reference: three hitting accesses *)
  let c' = M.Cache.create ~name:"credit-ref" ~size_bytes:1024 ~block_bytes:32 in
  ignore (M.Cache.access c' 0x100);
  ignore (M.Cache.access c' 0x104);
  ignore (M.Cache.access c' 0x108);
  ignore (M.Cache.access c' 0x10c);
  M.Cache.credit_hits c 3;
  Alcotest.(check int) "accesses match" (M.Cache.accesses c')
    (M.Cache.accesses c);
  Alcotest.(check int) "hits match" (M.Cache.hits c') (M.Cache.hits c);
  Alcotest.(check int) "last_victim cleared" (M.Cache.last_victim c')
    (M.Cache.last_victim c)

(* ----- invalidation demotes memoized runs ---------------------------------- *)

(* A synthetic trace whose runs touch disjoint lines, so warm/slow counts
   are exact: first replay all slow, second all fast, and after an
   invalidation all slow again (stale generation snapshots must not fake
   residency). *)
let synthetic_trace () =
  let t = Trace.create () in
  List.iter
    (fun base ->
      for i = 0 to 15 do
        if i = 5 then
          Trace.add t ~pc:(base + (4 * i)) ~cls:Instr.Load
            ~access:(Trace.Read (0x80000 + base + i)) ()
        else Trace.add t ~pc:(base + (4 * i)) ~cls:Instr.Alu ()
      done)
    (* distinct sets of the default 8 KB direct-mapped i-cache, so the
       three runs never evict each other *)
    [ 0x1000; 0x1100; 0x1200 ];
  t

let test_invalidate_demotes () =
  let trace = synthetic_trace () in
  let check_demotion label invalidate =
    let bc = M.Blockcache.segment M.Params.default trace in
    let m = M.Memsys.create M.Params.default in
    let n = M.Blockcache.n_runs bc in
    with_fastpath true (fun () ->
        M.Blockcache.replay bc m;
        Alcotest.(check int) (label ^ ": first replay all slow") n
          (M.Blockcache.slow_runs bc);
        M.Blockcache.reset_counters bc;
        M.Blockcache.replay bc m;
        Alcotest.(check int) (label ^ ": warm replay all fast") n
          (M.Blockcache.fast_runs bc);
        invalidate m;
        M.Blockcache.reset_counters bc;
        M.Blockcache.replay bc m;
        Alcotest.(check int) (label ^ ": post-invalidate replay all slow") n
          (M.Blockcache.slow_runs bc);
        M.Blockcache.reset_counters bc;
        M.Blockcache.replay bc m;
        Alcotest.(check int) (label ^ ": re-warms afterwards") n
          (M.Blockcache.fast_runs bc))
  in
  check_demotion "invalidate_primary" M.Memsys.invalidate_primary;
  check_demotion "invalidate_all" M.Memsys.invalidate_all

(* A fresh memory system must never inherit generation snapshots taken
   against another one (generations restart at 0 and could coincide). *)
let test_fresh_memsys_rebinds () =
  let trace = synthetic_trace () in
  let bc = M.Blockcache.segment M.Params.default trace in
  let n = M.Blockcache.n_runs bc in
  with_fastpath true (fun () ->
      let m1 = M.Memsys.create M.Params.default in
      M.Blockcache.replay bc m1;
      M.Blockcache.replay bc m1;
      let m2 = M.Memsys.create M.Params.default in
      M.Blockcache.reset_counters bc;
      M.Blockcache.replay bc m2;
      Alcotest.(check int) "fresh memsys starts slow" n
        (M.Blockcache.slow_runs bc))

(* Geometry mismatch between segmentation and memory system: never fast. *)
let test_geometry_guard () =
  let trace = synthetic_trace () in
  let bc = M.Blockcache.segment M.Params.default trace in
  let small =
    M.Memsys.create { M.Params.default with M.Params.icache_bytes = 2048 }
  in
  with_fastpath true (fun () ->
      M.Blockcache.replay bc small;
      M.Blockcache.replay bc small);
  Alcotest.(check int) "geometry mismatch keeps every run slow" 0
    (M.Blockcache.fast_runs bc)

(* ----- counter semantics --------------------------------------------------- *)

let test_reset_counters () =
  let trace = steady_trace () in
  with_fastpath true (fun () ->
      let bc = M.Blockcache.segment M.Params.default trace in
      let m = M.Memsys.create M.Params.default in
      M.Blockcache.replay bc m;
      M.Blockcache.replay bc m;
      M.Blockcache.reset_counters bc;
      Alcotest.(check int) "reset clears fast" 0 (M.Blockcache.fast_runs bc);
      Alcotest.(check int) "reset clears slow" 0 (M.Blockcache.slow_runs bc);
      Alcotest.(check int) "reset clears dmemo loads" 0
        (M.Blockcache.dmemo_loads bc);
      M.Blockcache.replay bc m;
      Alcotest.(check int) "counters describe one replay"
        (M.Blockcache.n_runs bc)
        (M.Blockcache.fast_runs bc + M.Blockcache.slow_runs bc))

(* steady_bc resets the segmentation's counters after warmup, so they
   describe the measured replay alone even when the same segmentation was
   replayed before. *)
let test_steady_bc_resets () =
  let trace = steady_trace () in
  with_fastpath true (fun () ->
      let bc = M.Blockcache.segment M.Params.default trace in
      ignore (M.Perf.steady_bc M.Params.default bc);
      let first = M.Blockcache.fast_runs bc + M.Blockcache.slow_runs bc in
      ignore (M.Perf.steady_bc M.Params.default bc);
      let second = M.Blockcache.fast_runs bc + M.Blockcache.slow_runs bc in
      Alcotest.(check int) "one measured replay's worth of runs"
        (M.Blockcache.n_runs bc) first;
      Alcotest.(check int) "no carry-over across measurements" first second)

(* cold_bc on a segmentation that already holds warm generation snapshots
   (from a steady measurement against another memory system) must still
   equal the from-scratch cold replay. *)
let test_cold_bc () =
  let trace = steady_trace () in
  let p = M.Params.default in
  let reference = M.Perf.cold p trace in
  with_fastpath true (fun () ->
      let bc = M.Blockcache.segment p trace in
      check_report "cold_bc on a fresh segmentation" (M.Perf.cold_bc p bc)
        reference;
      ignore (M.Perf.steady_bc p bc);
      check_report "cold_bc after a steady measurement" (M.Perf.cold_bc p bc)
        reference)

(* ----- incremental layout sweep -------------------------------------------- *)

(* pc_map retargets a trace between two placements of the same units, and
   rebind + steady_bc must equal a from-scratch segmentation and steady
   replay of the retargeted trace. *)
let test_rebind_pc_map () =
  let config = P.Config.make P.Config.Clo in
  let a = P.Engine.layout_for config P.Engine.Tcpip ~layout:P.Config.Bipartite () in
  let b = P.Engine.layout_for config P.Engine.Tcpip ~layout:P.Config.Linear () in
  let r =
    run_spec ~layout:P.Config.Bipartite P.Engine.Tcpip P.Config.Clo
  in
  let trace = r.P.Engine.trace in
  let trace' = Trace.map_pcs (L.Image.pc_map a b) trace in
  Alcotest.(check int) "same length" (Trace.length trace)
    (Trace.length trace');
  let p = M.Params.default in
  let bc = M.Blockcache.segment p trace in
  let via_rebind = M.Perf.steady_bc p (M.Blockcache.rebind bc trace') in
  let from_scratch = M.Perf.steady p trace' in
  check_report "rebind vs scratch" via_rebind from_scratch

(* The incremental sweep (one protocol simulation, per-layout pc rewrite +
   block-cache replay) must report exactly what full per-layout
   simulations report. *)
let test_layout_sweep_equivalence () =
  let layouts = [ P.Config.Bipartite; P.Config.Linear; P.Config.Pessimal ] in
  let inc = P.Experiments.layout_sweep ~layouts ~incremental:true () in
  let full = P.Experiments.layout_sweep ~layouts ~incremental:false () in
  List.iter2
    (fun (la, ca, sa) (lb, cb, sb) ->
      let name = P.Config.layout_name la in
      Alcotest.(check string) "same layout order" name
        (P.Config.layout_name lb);
      check_report (name ^ " cold") ca cb;
      check_report (name ^ " steady") sa sb)
    inc full

let suite =
  ( "fastpath",
    [ Alcotest.test_case "cache generation tags" `Quick
        test_cache_generation_tags;
      Alcotest.test_case "cache credit_hits" `Quick test_cache_credit_hits;
      Alcotest.test_case "blockcache replay equivalence" `Quick
        test_blockcache_replay_equiv;
      Alcotest.test_case "d-memo engaged" `Quick test_dmemo_engaged;
      Alcotest.test_case "blockcache disabled all slow" `Quick
        test_blockcache_disabled_all_slow;
      Alcotest.test_case "invalidate demotes memoized runs" `Quick
        test_invalidate_demotes;
      Alcotest.test_case "fresh memsys rebinds" `Quick
        test_fresh_memsys_rebinds;
      Alcotest.test_case "geometry guard" `Quick test_geometry_guard;
      Alcotest.test_case "reset_counters" `Quick test_reset_counters;
      Alcotest.test_case "steady_bc resets counters" `Quick
        test_steady_bc_resets;
      Alcotest.test_case "cold_bc" `Quick test_cold_bc;
      Alcotest.test_case "engine fast path on/off" `Slow test_engine_onoff;
      Alcotest.test_case "perf entry points vs Memsys.run" `Quick
        test_perf_entry_points;
      Alcotest.test_case "rebind + pc_map" `Quick test_rebind_pc_map;
      Alcotest.test_case "layout sweep equivalence" `Slow
        test_layout_sweep_equivalence ] )

(* Replay-layer checks made through whole engine runs. *)
let replay_suite =
  ( "replay",
    [ Alcotest.test_case "engine d-memo on/off" `Slow test_engine_dmemo_onoff ]
  )

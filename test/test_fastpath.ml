(* Warm-block fast path: differential tests of the engine's memoized
   emission against the per-instruction reference (whole engine runs with
   the fast path switched off), of the fused memory hierarchy against the
   per-call reference, and of every [Perf] entry point and the incremental
   layout sweep against plain [Memsys.run] replays — plus the tag
   residency and hit credit the fast path relies on. *)

module P = Protolat
module M = Protolat_machine
module Ns = Protolat_netsim
module Obs = Protolat_obs
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

(* The thrashing geometries: a 2 KB i-cache, where most chunks miss, and a
   512 B d-cache. *)
let icache_2k = { M.Params.default with M.Params.icache_bytes = 2048 }

let dcache_512 = { M.Params.default with M.Params.dcache_bytes = 512 }

(* A CPU model whose clock, every penalty and pairing rate differ from the
   default, so prices compiled from the wrong parameters show. *)
let other_cpu =
  { M.Params.default with
    M.Params.clock_mhz = 266.0;
    br_taken_penalty = 5.0;
    call_penalty = 4.5;
    ret_penalty = 3.0;
    mul_cycles = 19.0;
    load_use_penalty = 1.7;
    pair_success_pct = 40 }

let geometries =
  [ ("default", M.Params.default);
    ("2KB i-cache", icache_2k);
    ("512B d-cache", dcache_512) ]

(* ----- engine: fast path vs reference -------------------------------------- *)

(* Every observable of a run — per-roundtrip RTTs, cold/steady replay
   reports, the client's online hierarchy counters, the unified metrics
   dump, per-function attribution of the collected trace and the span
   ledger — must be byte-identical with the fast path on and with the
   per-instruction reference path it replaces: over both stacks and every
   version (hence every layout), a third seed, a lossy run that
   retransmits, a switched 2-host topology, a run recording spans, a
   thrashing i-cache geometry and a CPU model other than the default. *)
let check_engine_onoff name (spec : P.Engine.Spec.t) =
  let on = with_fastpath true (fun () -> P.Engine.run spec) in
  let off = with_fastpath false (fun () -> P.Engine.run spec) in
  Alcotest.(check bool) (name ^ ": rtts identical") true
    (on.P.Engine.rtts = off.P.Engine.rtts);
  Alcotest.(check int) (name ^ ": retransmissions identical")
    off.P.Engine.retransmissions on.P.Engine.retransmissions;
  check_report (name ^ " steady") on.P.Engine.steady off.P.Engine.steady;
  check_report (name ^ " cold") on.P.Engine.cold off.P.Engine.cold;
  Alcotest.(check bool) (name ^ ": online hierarchy counters identical") true
    (on.P.Engine.online = off.P.Engine.online);
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
       (spec ~seed:5 ~params:icache_2k P.Engine.Tcpip P.Config.Clo));
  ignore
    (check_engine_onoff "rpc/PIN other CPU model"
       (spec ~seed:9 ~params:other_cpu P.Engine.Rpc P.Config.Pin))

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
  List.iter
    (fun (tname, trace) ->
      List.iter
        (fun (gname, p) ->
          let name = tname ^ " " ^ gname in
          let cold = reference_report p trace in
          let steady1 = reference_report ~warmup:1 p trace in
          let steady = reference_report ~warmup:3 p trace in
          check_report (name ^ " cold") cold (M.Perf.cold p trace);
          check_report (name ^ " steady") steady (M.Perf.steady p trace);
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
                   ~instr_cycles p trace))
            [ (1, steady1); (3, steady) ])
        geometries)
    traces

(* ----- tag residency ------------------------------------------------------ *)

(* The fast path takes a chunk as warm exactly when its set's tag holds its
   line; that read must track fills, hits, conflicts and invalidation. *)
let test_cache_generation_tags () =
  let c = M.Cache.create ~name:"tags" ~size_bytes:1024 ~block_bytes:32 in
  let line = M.Cache.line_of c 0x4000 in
  (* the engine's read: the set's tag on its page, an empty page holding
     no line *)
  let resident () =
    let set = M.Cache.set_of_line c line in
    let page = c.M.Cache.pages.(set lsr c.M.Cache.page_shift) in
    Array.length page > 0 && page.(set land c.M.Cache.page_mask) = line
  in
  Alcotest.(check bool) "not resident before any fill" false (resident ());
  ignore (M.Cache.access c 0x4000);
  Alcotest.(check bool) "resident after fill" true (resident ());
  ignore (M.Cache.access c 0x4004);
  Alcotest.(check bool) "resident after a hit" true (resident ());
  (* conflicting line in the same set *)
  ignore (M.Cache.access c (0x4000 + 1024));
  Alcotest.(check bool) "not resident after a conflicting fill" false
    (resident ());
  ignore (M.Cache.access c 0x4000);
  Alcotest.(check bool) "resident again after a refill" true (resident ());
  M.Cache.invalidate_all c;
  Alcotest.(check bool) "not resident after invalidate_all" false
    (resident ())

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

(* ----- the fused hierarchy vs the per-call reference ------------------------ *)

(* One stream element, decoded from an int so QCheck can shrink streams:
   how the pc moves after it, the data reference's kind and how its
   address is picked, an offset, and whether to take the engine's
   warm-chunk path (data reference only, fetch credited as a hit) when
   the pc's line is resident. *)
type op = {
  jump : int;
  kind : int;
  dsel : int;
  donly : bool;
  off : int;
}

let op_kinds = [| Trace.kind_none; Trace.kind_read; Trace.kind_write |]

let op_of_int x =
  { jump = x mod 10;
    kind = op_kinds.(x / 10 mod 3);
    dsel = x / 30 mod 6;
    donly = x / 180 mod 4 = 0;
    off = x / 720 }

let max_op = (720 * 0x10000) - 1

let code_base = 0x10000

let data_base = 0x1000_0000

let two_mb = 0x200000

(* mostly straight-line code (sequential i-misses, stream prefetches),
   jumps within 32 KB (i-cache conflicts at 8 KB and 2 KB) and across 2 MB
   strides (b-cache conflicts) *)
let next_pc pc op =
  if op.jump < 7 then pc + 4
  else if op.jump = 7 then code_base + (op.off * 4 land 0x7FFC)
  else if op.jump = 8 then
    code_base + ((op.off land 3) * two_mb) + (op.off * 4 land 0xFFC)
  else pc + 64

(* a few hot lines (d-cache hits, write-buffer merges), a 16 KB window
   (d-cache conflicts at 8 KB and 512 B, write-buffer retirements), 2 MB
   strides (b-cache conflicts), the code region and a wide window
   (b-cache misses) *)
let data_addr op =
  match op.dsel with
  | 0 | 1 -> data_base + (op.off mod 6 * 32) + (op.off land 0x18)
  | 2 -> data_base + (op.off * 8 land 0x3FF8)
  | 3 -> data_base + ((op.off land 3) * two_mb) + (op.off * 8 land 0xFF8)
  | 4 -> code_base + (op.off * 4 land 0x7FFC)
  | _ -> data_base + 0x8000 + (op.off * 32 land 0x1FFFE0)

(* the per-call reference: one fetch, then the data reference *)
let issue_reference m pc op =
  let s = M.Memsys.ifetch m pc in
  if op.kind = Trace.kind_read then s +. M.Memsys.load m (data_addr op)
  else if op.kind = Trace.kind_write then s +. M.Memsys.store m (data_addr op)
  else s

(* the fused path as the engine drives it *)
let issue_fused m pc op =
  let ic = M.Memsys.icache m and addr = data_addr op in
  if op.donly && op.kind <> Trace.kind_none && M.Cache.probe ic pc then begin
    if op.kind = Trace.kind_read then M.Memsys.load_acc m addr
    else M.Memsys.store_acc m addr;
    M.Cache.credit_hits ic 1;
    (M.Memsys.lat_cell m).(0)
  end
  else M.Memsys.access m ~pc ~kind:op.kind ~addr

(* the line every set holds, whichever pages each cache has materialized *)
let same_tags (a : M.Cache.t) (b : M.Cache.t) =
  a.M.Cache.sets = b.M.Cache.sets
  &&
  let rec go s =
    s = a.M.Cache.sets || (M.Cache.tag a s = M.Cache.tag b s && go (s + 1))
  in
  go 0

let same_state a b =
  M.Memsys.stats a = M.Memsys.stats b
  && M.Cache.last_victim (M.Memsys.icache a)
     = M.Cache.last_victim (M.Memsys.icache b)
  && same_tags (M.Memsys.icache a) (M.Memsys.icache b)

let same_float x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* Drive [a] and [b] through [ops] in lockstep: every latency bit-equal and
   the observable state equal after every access. *)
let lockstep ~issue_a ~issue_b a b ops =
  let rec go pc = function
    | [] -> true
    | op :: rest ->
      let la = issue_a a pc op in
      let lb = issue_b b pc op in
      same_float la lb && same_state a b && go (next_pc pc op) rest
  in
  go code_base ops

let gen_stream = QCheck.(list_of_size Gen.(int_range 1 400) (int_bound max_op))

let prop_fused_vs_reference =
  QCheck.Test.make ~name:"fused hierarchy = per-call reference" ~count:100
    gen_stream (fun xs ->
      let ops = List.map op_of_int xs in
      List.for_all
        (fun (_, p) ->
          lockstep ~issue_a:issue_reference ~issue_b:issue_fused
            (M.Memsys.create p) (M.Memsys.create p) ops)
        geometries)

(* A cleared hierarchy that has run one stream replays a second exactly
   like a fresh one.  The dirty stream ends with a miss on the line just
   below the second stream's first pc, so stale stream-detection state
   would turn that first miss sequential. *)
let prop_cleared_vs_fresh =
  QCheck.Test.make ~name:"cleared hierarchy = fresh" ~count:50
    (QCheck.pair gen_stream gen_stream) (fun (xs, ys) ->
      List.for_all
        (fun (_, p) ->
          let dirty = M.Memsys.create p in
          ignore
            (List.fold_left
               (fun pc op ->
                 ignore (issue_fused dirty pc op);
                 next_pc pc op)
               code_base (List.map op_of_int xs));
          ignore
            (M.Memsys.access dirty ~pc:(code_base - 4) ~kind:Trace.kind_none
               ~addr:0);
          M.Memsys.clear dirty;
          lockstep ~issue_a:issue_fused ~issue_b:issue_fused dirty
            (M.Memsys.create p) (List.map op_of_int ys))
        geometries)

(* The stream generator reaches every case the fused path distinguishes,
   on every geometry: replacement misses at all three levels, sequential
   and prefetching i-misses, write-buffer merges and retirements, and the
   warm-chunk data-only path. *)
let test_fused_stream_coverage () =
  let rng = Random.State.make [| 42 |] in
  let ops = List.init 4000 (fun _ -> op_of_int (Random.State.int rng max_op)) in
  List.iter
    (fun (gname, p) ->
      let m = M.Memsys.create p in
      let seq = ref 0 and prefetch = ref 0 and merge = ref 0 in
      let retire = ref 0 and donly = ref 0 in
      ignore
        (List.fold_left
           (fun pc op ->
             let st0 = M.Memsys.stats m in
             if op.donly && op.kind <> Trace.kind_none
                && M.Cache.probe (M.Memsys.icache m) pc
             then incr donly;
             let s = M.Memsys.ifetch m pc in
             let st1 = M.Memsys.stats m in
             if s = float_of_int p.M.Params.b_seq_cycles then incr seq;
             if st1.M.Memsys.bcache.M.Memsys.acc - st0.M.Memsys.bcache.M.Memsys.acc = 2
             then incr prefetch;
             if op.kind = Trace.kind_read then ignore (M.Memsys.load m (data_addr op))
             else if op.kind = Trace.kind_write then begin
               if M.Memsys.store m (data_addr op) = p.M.Params.wb_retire_cycles
               then incr retire;
               if (M.Memsys.stats m).M.Memsys.dwb.M.Memsys.miss
                  = st1.M.Memsys.dwb.M.Memsys.miss
               then incr merge
             end;
             next_pc pc op)
           code_base ops);
      let st = M.Memsys.stats m in
      List.iter
        (fun (what, n) ->
          Alcotest.(check bool) (Printf.sprintf "%s: %s" gname what) true (n > 0))
        [ ("i-cache repl misses", st.M.Memsys.icache.M.Memsys.repl);
          ("d-cache repl misses", st.M.Memsys.dwb.M.Memsys.repl);
          ("b-cache repl misses", st.M.Memsys.bcache.M.Memsys.repl);
          ("sequential i-misses", !seq);
          ("stream prefetches", !prefetch);
          ("write-buffer merges", !merge);
          ("write-buffer retirements", !retire);
          ("data-only accesses", !donly) ])
    geometries

(* ----- incremental layout sweep -------------------------------------------- *)

(* The incremental sweep (one protocol simulation, per-layout pc rewrite +
   trace replay) must report exactly what full per-layout simulations
   report. *)
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

(* The engine computes its cold and steady reports on the client's own
   hierarchy, cleared after the online run; they must equal whole-trace
   [Memsys.run] replays on fresh hierarchies, with the fast path on and
   off. *)
let test_engine_replay () =
  let off =
    check_engine_onoff "tcpip/ALL seed=11"
      (P.Engine.Spec.make ~seed:11 ~stack:P.Engine.Tcpip
         ~config:(P.Config.make P.Config.All) ())
  in
  let p = M.Params.default and trace = off.P.Engine.trace in
  check_report "engine cold vs Memsys.run" off.P.Engine.cold
    (reference_report p trace);
  check_report "engine steady vs Memsys.run" off.P.Engine.steady
    (reference_report ~warmup:3 p trace)

let suite =
  ( "fastpath",
    [ Alcotest.test_case "cache generation tags" `Quick
        test_cache_generation_tags;
      Alcotest.test_case "cache credit_hits" `Quick test_cache_credit_hits;
      QCheck_alcotest.to_alcotest prop_fused_vs_reference;
      QCheck_alcotest.to_alcotest prop_cleared_vs_fresh;
      Alcotest.test_case "fused stream coverage" `Quick
        test_fused_stream_coverage;
      Alcotest.test_case "engine fast path on/off" `Slow test_engine_onoff;
      Alcotest.test_case "perf entry points vs Memsys.run" `Quick
        test_perf_entry_points;
      Alcotest.test_case "layout sweep equivalence" `Slow
        test_layout_sweep_equivalence ] )

(* Replay-layer checks made through whole engine runs. *)
let replay_suite =
  ( "replay",
    [ Alcotest.test_case "engine cold/steady vs Memsys.run" `Slow
        test_engine_replay ] )

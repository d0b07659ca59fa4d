module P = Protolat
module M = Protolat_machine
module L = Protolat_layout
module T = Protolat_tcpip
module Stats = Protolat_util.Stats

let run ?layout stack v =
  P.Engine.run (P.Engine.Spec.make ?layout ~stack ~config:(P.Config.make v) ())

let mean_rtt (r : P.Engine.run_result) = Stats.mean r.P.Engine.rtts

let test_all_configs_complete () =
  List.iter
    (fun stack ->
      List.iter
        (fun v ->
          let r = run stack v in
          Alcotest.(check bool)
            (P.Engine.stack_name stack ^ "/" ^ P.Config.version_name v)
            true
            (List.length r.P.Engine.rtts > 0
            && r.P.Engine.steady.M.Perf.length > 1000))
        P.Config.all_versions)
    [ P.Engine.Tcpip; P.Engine.Rpc ]

let test_determinism () =
  let a = run P.Engine.Tcpip P.Config.Std in
  let b = run P.Engine.Tcpip P.Config.Std in
  Alcotest.(check (list (float 1e-9))) "same seed, same rtts" a.P.Engine.rtts
    b.P.Engine.rtts;
  Alcotest.(check int) "same trace" a.P.Engine.steady.M.Perf.length
    b.P.Engine.steady.M.Perf.length

let test_seed_perturbs () =
  let with_seed seed =
    P.Engine.run
      (P.Engine.Spec.make ~seed ~stack:P.Engine.Tcpip
         ~config:(P.Config.make P.Config.Std) ())
  in
  let a = with_seed 1 in
  let b = with_seed 2 in
  (* different allocation perturbation, nearly identical means *)
  Alcotest.(check bool) "close but measured independently" true
    (Float.abs (mean_rtt a -. mean_rtt b) < 5.0)

let test_version_ordering_tcp () =
  let rtt v = mean_rtt (run P.Engine.Tcpip v) in
  let bad = rtt P.Config.Bad
  and std = rtt P.Config.Std
  and out = rtt P.Config.Out
  and clo = rtt P.Config.Clo
  and pin = rtt P.Config.Pin
  and all = rtt P.Config.All in
  Alcotest.(check bool) "BAD slowest by far" true (bad > std +. 50.0);
  Alcotest.(check bool) "STD > OUT" true (std > out);
  Alcotest.(check bool) "OUT > CLO" true (out > clo);
  Alcotest.(check bool) "CLO > PIN" true (clo > pin);
  Alcotest.(check bool) "ALL fastest (within noise of PIN)" true
    (all <= pin +. 1.0)

let test_version_ordering_rpc () =
  let rtt v = mean_rtt (run P.Engine.Rpc v) in
  Alcotest.(check bool) "BAD slowest" true
    (rtt P.Config.Bad > rtt P.Config.Std +. 30.0);
  Alcotest.(check bool) "ALL fastest" true
    (rtt P.Config.All < rtt P.Config.Std)

let test_mcpi_reduction_factor () =
  let mcpi stack v = (run stack v).P.Engine.steady.M.Perf.mcpi in
  let f_tcp = mcpi P.Engine.Tcpip P.Config.Bad /. mcpi P.Engine.Tcpip P.Config.All in
  let f_rpc = mcpi P.Engine.Rpc P.Config.Bad /. mcpi P.Engine.Rpc P.Config.All in
  (* the paper reports factors of 3.9 (TCP/IP) and 5.8 (RPC); we require the
     same order of magnitude with RPC at least as layout-sensitive *)
  Alcotest.(check bool) "TCP factor > 2" true (f_tcp > 2.0);
  Alcotest.(check bool) "RPC factor > 2.5" true (f_rpc > 2.5)

let test_outlining_reduces_icpi () =
  let icpi v = (run P.Engine.Tcpip v).P.Engine.steady.M.Perf.icpi in
  Alcotest.(check bool) "outlining removes taken branches" true
    (icpi P.Config.Out < icpi P.Config.Std)

let test_pin_shrinks_trace () =
  let len v = (run P.Engine.Tcpip v).P.Engine.steady.M.Perf.length in
  Alcotest.(check bool) "path-inlining removes call overhead" true
    (len P.Config.Pin < len P.Config.Out - 200)

let test_table1_within_tolerance () =
  (* each §2.2 toggle's measured saving within 35% of the paper's *)
  let t = P.Experiments.table1 () in
  ignore (Protolat_util.Table.render t);
  let base =
    (P.Engine.run
       (P.Engine.Spec.default ~stack:P.Engine.Tcpip
          ~config:(P.Config.make ~opts:T.Opts.improved P.Config.Std)))
      .P.Engine.steady.M.Perf.length
  in
  let delta flip paper =
    let opts = flip T.Opts.improved in
    let len =
      (P.Engine.run
         (P.Engine.Spec.default ~stack:P.Engine.Tcpip
            ~config:(P.Config.make ~opts P.Config.Std)))
        .P.Engine.steady.M.Perf.length
    in
    let d = len - base in
    let err = Float.abs (float_of_int (d - paper)) /. float_of_int paper in
    Alcotest.(check bool)
      (Printf.sprintf "delta %d vs paper %d" d paper)
      true (err < 0.35)
  in
  delta (fun o -> { o with T.Opts.word_fields = false }) 324;
  delta (fun o -> { o with T.Opts.refresh_shortcircuit = false }) 208;
  delta (fun o -> { o with T.Opts.usc_lance = false }) 171;
  delta (fun o -> { o with T.Opts.avoid_muldiv = false }) 90

let test_cold_b_repl_zero_except_bad () =
  List.iter
    (fun v ->
      let r = run P.Engine.Tcpip v in
      let repl =
        r.P.Engine.cold.M.Perf.stats.M.Memsys.bcache.M.Memsys.repl
      in
      if v = P.Config.Bad then
        Alcotest.(check bool) "BAD has b-cache conflicts" true (repl > 0)
      else
        Alcotest.(check int)
          ("no b-repl in " ^ P.Config.version_name v)
          0 repl)
    P.Config.all_versions

let test_unused_fraction_improves () =
  let unused v =
    let r = run P.Engine.Tcpip v in
    L.Layout_stats.unused_fraction r.P.Engine.trace ~block_bytes:32
  in
  let std = unused P.Config.Std and out = unused P.Config.Out in
  Alcotest.(check bool) "STD wastes more than 20%" true (std > 0.20);
  Alcotest.(check bool) "outlining compresses" true (out < std -. 0.04)

let test_layout_for_builds () =
  List.iter
    (fun layout ->
      let img =
        P.Engine.layout_for (P.Config.make P.Config.Clo) P.Engine.Tcpip
          ~layout ()
      in
      Alcotest.(check bool) "has slots" true
        (List.length (L.Image.slots img) > 50))
    [ P.Config.Link_order; P.Config.Bipartite; P.Config.Pessimal;
      P.Config.Micro ]

let test_sample_stddev_small () =
  let s =
    P.Engine.sample ~samples:4
      (P.Engine.Spec.make ~rounds:10 ~stack:P.Engine.Tcpip
         ~config:(P.Config.make P.Config.Std) ())
  in
  Alcotest.(check bool) "stddev well under 1% of mean" true
    (s.P.Engine.rtt.Stats.stddev < 0.01 *. s.P.Engine.rtt.Stats.mean)

let test_experiment_tables_render () =
  let results =
    P.Experiments.full_run ~samples_tcp:2 ~samples_rpc:2 ~rounds:8 ()
  in
  List.iter
    (fun t ->
      Alcotest.(check bool) "renders" true
        (String.length (Protolat_util.Table.render t) > 100))
    [ P.Experiments.table4 results; P.Experiments.table5 results;
      P.Experiments.table6 results; P.Experiments.table7 results;
      P.Experiments.table8 results; P.Experiments.table9 results ];
  Alcotest.(check bool) "figure1" true (String.length (P.Experiments.figure1 ()) > 100);
  Alcotest.(check bool) "figure2" true (String.length (P.Experiments.figure2 ()) > 100)

let test_image_slots_disjoint () =
  (* no two slots may ever share an instruction address, in any
     configuration or layout (this guards the dilution/footprint
     accounting) *)
  List.iter
    (fun stack ->
      List.iter
        (fun v ->
          let img = P.Engine.layout_for (P.Config.make v) stack () in
          let seen = Hashtbl.create 65536 in
          List.iter
            (fun (slot : L.Image.slot) ->
              Array.iter
                (fun pc ->
                  match Hashtbl.find_opt seen pc with
                  | Some other ->
                    Alcotest.fail
                      (Printf.sprintf "%s/%s: pc 0x%x of %s/%s also in %s"
                         (P.Engine.stack_name stack)
                         (P.Config.version_name v)
                         pc slot.L.Image.func slot.L.Image.key other)
                  | None ->
                    Hashtbl.replace seen pc
                      (slot.L.Image.func ^ "/" ^ slot.L.Image.key))
                slot.L.Image.pcs)
            (L.Image.slots img))
        P.Config.all_versions)
    [ P.Engine.Tcpip; P.Engine.Rpc ]

let prop_image_pcs_monotonic =
  QCheck.Test.make ~name:"slot pcs strictly increase" ~count:1
    QCheck.unit
    (fun () ->
      let img =
        P.Engine.layout_for (P.Config.make P.Config.Std) P.Engine.Tcpip ()
      in
      List.for_all
        (fun (slot : L.Image.slot) ->
          let ok = ref true in
          Array.iteri
            (fun i pc ->
              if i > 0 && pc <= slot.L.Image.pcs.(i - 1) then ok := false)
            slot.L.Image.pcs;
          !ok)
        (L.Image.slots img))

(* The micro-positioned CLO images are constants of the repo: digest every
   unit's (name, start, stop) so a change to the placement search cannot
   move a single unit silently. *)
let test_micro_images_pinned () =
  List.iter
    (fun (stack, want) ->
      let img =
        P.Engine.layout_for (P.Config.make P.Config.Clo) stack
          ~layout:P.Config.Micro ()
      in
      let b = Buffer.create 1024 in
      List.iter
        (fun (name, start, stop) -> Printf.bprintf b "%s:%d:%d;" name start stop)
        (L.Image.regions img);
      Alcotest.(check string)
        (P.Engine.stack_name stack ^ " micro image regions")
        want
        (Digest.to_hex (Digest.string (Buffer.contents b))))
    [ (P.Engine.Tcpip, "2fa71e9f4ec961cabcbee045ab2d381b"); (P.Engine.Rpc, "0702d0c33f4311e27c20c3dbba434504") ]

let test_bsd_model () =
  let counts = P.Bsd_model.segment_counts () in
  let near name paper tol =
    let ours = List.assoc name counts in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d vs paper %d" name ours paper)
      true
      (Float.abs (float_of_int (ours - paper)) /. float_of_int paper < tol)
  in
  near "ipintr" 248 0.15;
  near "tcp_input" 406 0.15;
  (* the production stack's memory behaviour: mCPI well above the
     optimally configured system, CPI in the quoted 4.26 neighbourhood *)
  let img = P.Bsd_model.image () in
  let trace = P.Bsd_model.roundtrip_trace ~image:img () in
  let r = M.Perf.steady M.Params.default trace in
  Alcotest.(check bool) "mCPI >= 2" true (r.M.Perf.mcpi >= 2.0);
  Alcotest.(check bool) "CPI near 4.26" true
    (r.M.Perf.cpi > 3.5 && r.M.Perf.cpi < 5.2);
  Alcotest.(check bool) "worse than ALL" true
    (r.M.Perf.mcpi
    > (run P.Engine.Tcpip P.Config.All).P.Engine.steady.M.Perf.mcpi)

let test_config_names () =
  List.iter
    (fun v ->
      Alcotest.(check (option bool)) "roundtrip" (Some true)
        (Option.map (( = ) v) (P.Config.of_name (P.Config.version_name v))))
    P.Config.all_versions;
  Alcotest.(check bool) "unknown" true (P.Config.of_name "XXX" = None)

(* The domain-parallel sweep must be a pure scheduling change: the same
   (config, seed) runs land in the same result slots, so the rendered
   tables are bit-identical at any job count. *)
let test_full_run_jobs_identical () =
  let render jobs =
    let r =
      P.Experiments.full_run ~samples_tcp:2 ~samples_rpc:2 ~rounds:6 ~jobs ()
    in
    Protolat_util.Table.render (P.Experiments.table4 r)
    ^ Protolat_util.Table.render (P.Experiments.table7 r)
  in
  Alcotest.(check string) "jobs:4 = jobs:1" (render 1) (render 4)

(* The paper's twelve cells (both stacks x the six versions of Tables
   4-9), pinned end to end: every measured roundtrip and the cold and
   steady replay statistics of each cell, at the default spec and the
   first sample seed.  The digest predates the interned meter sites and
   the fused hierarchy path, so it holds them bit for bit to the
   string-dispatched, per-call code they replaced; any drift in any
   cell, RPC included, fails here. *)
let stats_key (s : M.Memsys.stats) =
  let row (r : M.Memsys.cache_row) =
    Printf.sprintf "%d/%d/%d" r.M.Memsys.miss r.M.Memsys.acc r.M.Memsys.repl
  in
  Printf.sprintf "%s %s %s %h" (row s.M.Memsys.icache) (row s.M.Memsys.dwb)
    (row s.M.Memsys.bcache) s.M.Memsys.stall_cycles

let paper_cell stack v =
  let r =
    P.Engine.run
      (P.Engine.Spec.with_seed (P.Engine.sample_seed 0)
         (P.Engine.Spec.default ~stack ~config:(P.Config.make v)))
  in
  Printf.sprintf "%s/%s %s | cold %s | steady %s" (P.Engine.stack_name stack)
    (P.Config.version_name v)
    (String.concat "," (List.map (Printf.sprintf "%h") r.P.Engine.rtts))
    (stats_key r.P.Engine.cold.M.Perf.stats)
    (stats_key r.P.Engine.steady.M.Perf.stats)

let test_paper_cells_pinned () =
  let cells =
    List.concat_map
      (fun stack -> List.map (paper_cell stack) P.Config.all_versions)
      [ P.Engine.Tcpip; P.Engine.Rpc ]
  in
  Alcotest.(check string) "12-cell digest" "79f4f6afbe1714c075eae4f885d5e24f"
    (Digest.to_hex (Digest.string (String.concat "\n" cells)))

(* What [paper cells pinned] cannot cover without moving its digest: a
   faulted run (RPC ALL, 10% loss, where CHAN's request retransmission
   carries every call) and the bulk-transfer path behind the throughput
   table.  Every RTT and throughput field is pinned in [%h]; the faulted
   run also pins its retransmission count and the digest of the whole
   metrics registry (device, protocol and fault-plan counters). *)
let test_faulted_and_bulk_pinned () =
  let r =
    P.Engine.run
      (P.Engine.Spec.make ~seed:11
         ~fault:{ Protolat_netsim.Fault.clean with loss_pct = 10.0 }
         ~stack:P.Engine.Rpc ~config:(P.Config.make P.Config.All) ())
  in
  Alcotest.(check string) "faulted rpc rtts" "290281d2cfd95475d4f1841d70e72bd5"
    (Digest.to_hex
       (Digest.string
          (String.concat "," (List.map (Printf.sprintf "%h") r.P.Engine.rtts))));
  Alcotest.(check int) "faulted rpc retransmissions" 9
    r.P.Engine.retransmissions;
  Alcotest.(check string) "faulted rpc metrics" "354aa0d322cf401be1f288c382233049"
    (Digest.to_hex (Digest.string (Protolat_obs.Metrics.to_json r.P.Engine.metrics)));
  let bulk v =
    let t = P.Engine.throughput ~config:(P.Config.make v) () in
    Printf.sprintf "%h %h %h %h %d" t.P.Engine.mbits_per_s t.P.Engine.elapsed_us
      t.P.Engine.client_cpu_pct t.P.Engine.server_cpu_pct t.P.Engine.segments
  in
  Alcotest.(check string) "throughput STD"
    "0x1.16d4df7338205p+3 0x1.d61371cf6b17ep+15 0x1.49feb440b51ecp+2 \
     0x1.6fa81518d5177p+2 50"
    (bulk P.Config.Std);
  Alcotest.(check string) "throughput ALL"
    "0x1.172c45e023045p+3 0x1.d58047632e1bp+15 0x1.17b0918a9f5aep+2 \
     0x1.3add345a0988ep+2 50"
    (bulk P.Config.All)

let suite =
  ( "engine",
    [ Alcotest.test_case "all configs complete" `Slow test_all_configs_complete;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "paper cells pinned" `Quick test_paper_cells_pinned;
      Alcotest.test_case "parallel sweep determinism" `Slow
        test_full_run_jobs_identical;
      Alcotest.test_case "seed perturbation" `Quick test_seed_perturbs;
      Alcotest.test_case "tcp version ordering" `Slow test_version_ordering_tcp;
      Alcotest.test_case "rpc version ordering" `Slow test_version_ordering_rpc;
      Alcotest.test_case "mcpi reduction factor" `Slow
        test_mcpi_reduction_factor;
      Alcotest.test_case "outlining reduces icpi" `Quick
        test_outlining_reduces_icpi;
      Alcotest.test_case "pin shrinks trace" `Quick test_pin_shrinks_trace;
      Alcotest.test_case "table1 tolerance" `Slow test_table1_within_tolerance;
      Alcotest.test_case "b-repl only in BAD" `Slow
        test_cold_b_repl_zero_except_bad;
      Alcotest.test_case "unused fraction improves" `Quick
        test_unused_fraction_improves;
      Alcotest.test_case "layout_for builds" `Quick test_layout_for_builds;
      Alcotest.test_case "sample stddev" `Slow test_sample_stddev_small;
      Alcotest.test_case "experiment tables render" `Slow
        test_experiment_tables_render;
      Alcotest.test_case "image slots disjoint" `Quick
        test_image_slots_disjoint;
      Alcotest.test_case "micro images pinned" `Quick test_micro_images_pinned;
      Alcotest.test_case "bsd model" `Quick test_bsd_model;
      QCheck_alcotest.to_alcotest prop_image_pcs_monotonic;
      Alcotest.test_case "config names" `Quick test_config_names;
      Alcotest.test_case "faulted and bulk runs pinned" `Quick
        test_faulted_and_bulk_pinned ] )

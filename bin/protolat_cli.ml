(* protolat — command-line driver for the protocol-latency reproduction.

   Subcommands:
     run      measure one stack/version configuration
     tables   regenerate the paper's tables
     figures  print Figures 1 and 2
     layout   show a configuration's code image
     sweep    Table 4-style sweep over all versions
     trace    export a timeline / raw instruction trace
     profile  latency attribution
     spans    per-message latency provenance
     soak     deterministic fault-injection soak
     mflow    multi-flow traffic engine with connection churn
     chaos    host-lifecycle chaos with shrinkable repro schedules
     fabric   N-client incast over the switched star fabric
     search   automated code-layout search scored on the i-cache alone   *)

module P = Protolat
module M = Protolat_machine
module L = Protolat_layout
module Stats = Protolat_util.Stats
open Cmdliner

(* Shared flag definitions live in Cli_common so every subcommand spells
   -s/-c/--seed/--seeds/-j/--json/--check/-o the same way. *)
let version_conv = Cli_common.version_conv
let stack_arg = Cli_common.stack_arg
let version_arg = Cli_common.version_arg
let rounds_arg = Cli_common.rounds_arg
let seed_arg = Cli_common.seed_arg
let jobs_arg = Cli_common.jobs_arg

(* ----- run -------------------------------------------------------------- *)

let run_cmd =
  let run stack version rounds seed topo hosts =
    let topology = Cli_common.pair_topology_of topo hosts in
    let r =
      P.Engine.run
        (P.Engine.Spec.make ~topology ~seed ~rounds ~stack
           ~config:(P.Config.make version) ())
    in
    let s = r.P.Engine.steady in
    Printf.printf "%s / %s: %d roundtrips\n" (P.Engine.stack_name stack)
      (P.Config.version_name version) rounds;
    Printf.printf "  RTT           %.1f us (+/- %.2f)\n"
      (Stats.mean r.P.Engine.rtts)
      (Stats.stddev r.P.Engine.rtts);
    Printf.printf "  processing    %.1f us, %d instructions\n" s.M.Perf.time_us
      s.M.Perf.length;
    Printf.printf "  CPI %.2f = iCPI %.2f + mCPI %.2f\n" s.M.Perf.cpi
      s.M.Perf.icpi s.M.Perf.mcpi;
    let st = s.M.Perf.stats in
    Printf.printf "  i$ %d/%d (repl %d)   d$/wb %d/%d   b$ %d/%d (repl %d)\n"
      st.M.Memsys.icache.M.Memsys.miss st.M.Memsys.icache.M.Memsys.acc
      st.M.Memsys.icache.M.Memsys.repl st.M.Memsys.dwb.M.Memsys.miss
      st.M.Memsys.dwb.M.Memsys.acc st.M.Memsys.bcache.M.Memsys.miss
      st.M.Memsys.bcache.M.Memsys.acc st.M.Memsys.bcache.M.Memsys.repl;
    if r.P.Engine.retransmissions > 0 then
      Printf.printf "  retransmissions: %d\n" r.P.Engine.retransmissions
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Measure one configuration.")
    Term.(const run $ stack_arg $ version_arg $ rounds_arg $ seed_arg
          $ Cli_common.topo_arg $ Cli_common.hosts_arg)

(* ----- tables ------------------------------------------------------------ *)

let tables_cmd =
  let names =
    [ "table1"; "table2"; "table3"; "table4"; "table5"; "table6"; "table7";
      "table8"; "table9"; "map"; "throughput"; "micro"; "decunix"; "bsd";
      "fault"; "mflow"; "chaos"; "fabric"; "search"; "layout"; "ablations" ]
  in
  let which =
    Arg.(
      value
      & pos_all (enum (List.map (fun n -> (n, n)) names)) names
      & info [] ~docv:"TABLE" ~doc:"Tables to print (default: all).")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Fewer samples/rounds.")
  in
  let run which quick jobs =
    let want n = List.mem n which in
    if want "table1" then Protolat_util.Table.print (P.Experiments.table1 ());
    if want "table2" then Protolat_util.Table.print (P.Experiments.table2 ());
    if want "table3" then Protolat_util.Table.print (P.Experiments.table3 ());
    if List.exists want [ "table4"; "table5"; "table6"; "table7"; "table8"; "table9" ]
    then begin
      let samples_tcp, samples_rpc, rounds =
        if quick then (3, 3, 12) else (10, 5, 24)
      in
      let results =
        P.Experiments.full_run ~samples_tcp ~samples_rpc ~rounds ~jobs ()
      in
      List.iter
        (fun (n, t) -> if want n then Protolat_util.Table.print (t results))
        [ ("table4", P.Experiments.table4); ("table5", P.Experiments.table5);
          ("table6", P.Experiments.table6); ("table7", P.Experiments.table7);
          ("table8", P.Experiments.table8); ("table9", P.Experiments.table9) ]
    end;
    if want "map" then Protolat_util.Table.print (P.Experiments.map_traversal ());
    if want "throughput" then
      Protolat_util.Table.print (P.Experiments.throughput ());
    if want "micro" then
      Protolat_util.Table.print (P.Experiments.micro_positioning ());
    if want "decunix" then
      Protolat_util.Table.print (P.Experiments.dec_unix_mcpi ());
    if want "bsd" then Protolat_util.Table.print (P.Bsd_model.report ());
    if want "fault" then
      Protolat_util.Table.print (P.Experiments.fault_injection ());
    if want "mflow" then
      Protolat_util.Table.print
        (P.Experiments.mflow_scaling
           ~flow_counts:(if quick then [ 1; 8; 64 ] else [ 1; 8; 64; 256 ])
           ~seeds:(if quick then 2 else 4)
           ~jobs ());
    if want "chaos" then
      Protolat_util.Table.print
        (P.Experiments.chaos_degradation
           ~intensities:(if quick then [ 0; 2; 4 ] else [ 0; 1; 2; 4; 8 ])
           ~seeds:(if quick then 1 else 2)
           ~jobs ());
    if want "fabric" then
      Protolat_util.Table.print
        (P.Experiments.incast_latency
           ~fan_ins:(if quick then [ 2; 8; 32 ] else [ 2; 4; 8; 16; 32; 64 ])
           ~jobs ());
    if want "search" then
      Protolat_util.Table.print
        (P.Experiments.layout_search
           ~budget:(if quick then 160 else 240)
           ~jobs ());
    if want "layout" then
      Protolat_util.Table.print (P.Experiments.layout_sweep_table ());
    if want "ablations" then
      List.iter
        (fun t -> Protolat_util.Table.print (t ()))
        P.Ablation.
          [ classifier; cache_size; linear_vs_bipartite; future_machine;
            layout_matrix ]
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate the paper's tables.")
    Term.(const run $ which $ quick $ jobs_arg)

(* ----- figures ------------------------------------------------------------ *)

let figures_cmd =
  let run () =
    print_endline (P.Experiments.figure1 ());
    print_endline (P.Experiments.figure2 ())
  in
  Cmd.v (Cmd.info "figures" ~doc:"Print Figures 1 and 2.")
    Term.(const run $ const ())

(* ----- layout -------------------------------------------------------------- *)

let layout_cmd =
  let run stack version =
    let img = P.Engine.layout_for (P.Config.make version) stack () in
    Printf.printf "%s / %s code image: %d static instructions, end=0x%x\n\n"
      (P.Engine.stack_name stack)
      (P.Config.version_name version)
      (L.Image.static_instr_count img) (L.Image.end_addr img);
    List.iter
      (fun (name, a, b) ->
        Printf.printf "  %08x..%08x  %6d B  %s\n" a b (b - a) name)
      (L.Image.regions img)
  in
  Cmd.v
    (Cmd.info "layout" ~doc:"Show where a configuration places each function.")
    Term.(const run $ stack_arg $ version_arg)

(* ----- profile -------------------------------------------------------------- *)

let profile_cmd =
  let versions_arg =
    Arg.(value & pos_all version_conv [] & info [] ~docv:"VERSION"
           ~doc:"Versions to profile (default: the -c version).")
  in
  let json_arg = Cli_common.json_arg () in
  let check_arg =
    Cli_common.check_arg
      ~doc:
        "Verify the conservation laws (per-function and per-layer sums \
         equal the aggregate report; every i-cache miss is classified) and \
         exit non-zero on violation."
      ()
  in
  let cold_arg =
    Arg.(value & flag
         & info [ "cold" ] ~doc:"Attribute the cold-start replay (Table 6) \
                                 instead of the steady-state one (Table 7).")
  in
  let legacy_arg =
    Arg.(value & flag
         & info [ "classic" ]
             ~doc:"Also print the classic per-function trace/instruction-mix \
                   tables.")
  in
  let run stack version versions seed jobs json check cold legacy =
    let versions = if versions = [] then [ version ] else versions in
    let mode = if cold then `Cold else `Steady in
    let profiles =
      P.Profile.collect_many ~seed ~mode ~jobs ~stack versions
    in
    let failed = ref false in
    List.iteri
      (fun i t ->
        if json then print_string (P.Profile.to_json t)
        else begin
          if i > 0 then print_newline ();
          print_string (P.Profile.render t)
        end;
        if json then print_newline ();
        if check then
          match P.Profile.check t with
          | Ok () ->
            if not json then
              print_endline "check: attribution sums match the aggregate report"
          | Error msg ->
            failed := true;
            Printf.eprintf "check FAILED (%s/%s):\n%s\n"
              (P.Engine.stack_name stack)
              (P.Config.version_name t.P.Profile.version)
              msg)
      profiles;
    if legacy then begin
      List.iter
        (fun t ->
          Protolat_util.Table.print
            (P.Experiments.profile ~stack ~version:t.P.Profile.version ());
          Protolat_util.Table.print
            (P.Experiments.instruction_mix ~stack
               ~version:t.P.Profile.version ()))
        profiles
    end;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Latency attribution: per-layer and per-function cycle/mCPI \
          breakdowns of a roundtrip trace, plus the i-cache conflict \
          matrix naming which (victim, evictor) function pairs fight over \
          cache sets.  Deterministic: byte-identical output for the same \
          seed at any --jobs count.")
    Term.(const run $ stack_arg $ version_arg $ versions_arg $ seed_arg
          $ jobs_arg $ json_arg $ check_arg $ cold_arg $ legacy_arg)

(* ----- spans -------------------------------------------------------------- *)

let spans_cmd =
  let layout_conv =
    let parse = function
      | "link-order" | "link_order" | "link" -> Ok P.Config.Link_order
      | "bipartite" -> Ok P.Config.Bipartite
      | "pessimal" -> Ok P.Config.Pessimal
      | "micro" | "micro-positioning" -> Ok P.Config.Micro
      | "linear" -> Ok P.Config.Linear
      | s ->
        Error
          (`Msg
            ("unknown layout: " ^ s
           ^ " (link-order|bipartite|pessimal|micro|linear)"))
    in
    let print fmt l = Format.pp_print_string fmt (P.Config.layout_name l) in
    Arg.conv (parse, print)
  in
  let layouts_arg =
    Arg.(value & opt (some (list layout_conv)) None
         & info [ "layouts" ] ~docv:"LAYOUTS"
             ~doc:"Comma-separated layouts to measure (default: all five \
                   candidates).")
  in
  let json_arg = Cli_common.json_arg () in
  let check_arg =
    Cli_common.check_arg
      ~doc:
        "Verify the conservation law (every message's per-stage durations \
         fold bit-exactly to its measured RTT) and exit non-zero on \
         violation."
      ()
  in
  let out_arg = Cli_common.out_arg () in
  let perfetto_arg =
    Arg.(value & opt (some string) None
         & info [ "perfetto" ] ~docv:"FILE"
             ~doc:"Also write the span ledgers as a Perfetto trace-event \
                   file: one process per layout, per-host stage slices, \
                   flow arrows tying each wire hop's send span to its \
                   receive span.")
  in
  let run stack version rounds seed jobs layouts json check out perfetto =
    let t =
      P.Spans.collect ~seed ~rounds ?layouts ~jobs ~stack ~version ()
    in
    let doc =
      if json then P.Spans.to_json t ^ "\n" else P.Spans.render t
    in
    Cli_common.write out doc;
    (match perfetto with
    | Some path -> Cli_common.write (Some path) (P.Spans.perfetto t)
    | None -> ());
    if check then
      match P.Spans.check t with
      | Ok () ->
        if not json then
          print_endline
            "check: every stage budget folds bit-exactly to its measured RTT"
      | Error msg ->
        Printf.eprintf "check FAILED (%s/%s):\n%s\n"
          (P.Engine.stack_name stack)
          (P.Config.version_name version)
          msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "spans"
       ~doc:
         "Latency provenance: per-message span ledger rolled up into a \
          per-stage latency budget (app, send protocol, NIC queue, wire, \
          rx interrupt, receive protocol, retransmit wait) for each code \
          layout, conserving the measured RTT bit-exactly.  Needs no \
          environment knob: the ledger is enabled explicitly for these \
          runs and never perturbs the simulation.")
    Term.(const run $ stack_arg $ version_arg $ rounds_arg $ seed_arg
          $ jobs_arg $ layouts_arg $ json_arg $ check_arg $ out_arg
          $ perfetto_arg)

(* ----- trace -------------------------------------------------------------- *)

let trace_cmd =
  let out_arg = Cli_common.out_arg ~doc:"Write the trace to a file." () in
  let raw_arg =
    Arg.(value & flag
         & info [ "raw" ]
             ~doc:"Dump the instruction/data trace (the artifact the paper \
                   distributed by FTP) instead of the timeline.")
  in
  let seeds_arg =
    Cli_common.seeds_arg
      ~doc:"Timeline processes to capture (one engine run per seed)." ()
  in
  let check_arg =
    Cli_common.check_arg
      ~doc:
        "Parse the emitted document and verify it is well-formed \
         trace-event JSON with a traceEvents array."
      ()
  in
  let loss_arg =
    Arg.(value & opt float 0.0
         & info [ "loss" ]
             ~doc:"Install a seeded fault plan with this per-frame loss \
                   percentage, so drops, timer backoffs and retransmissions \
                   appear on the timeline.")
  in
  let write = Cli_common.write in
  let run stack version seed out raw seeds jobs check loss =
    if raw then begin
      let r =
        P.Engine.run
          (P.Engine.Spec.make ~seed ~stack ~config:(P.Config.make version) ())
      in
      write out (Protolat_machine.Trace.to_string r.P.Engine.trace)
    end
    else begin
      let fault =
        if loss > 0.0 then
          Some { Protolat_netsim.Fault.clean with loss_pct = loss }
        else None
      in
      let t =
        P.Timeline.collect ~base_seed:seed ~seeds ?fault ~jobs ~stack
          ~version ()
      in
      let json = P.Timeline.to_json t in
      (if check then
         match Protolat_obs.Json.parse json with
         | Error msg ->
           Printf.eprintf "trace JSON is malformed: %s\n" msg;
           exit 1
         | Ok v ->
           (match Protolat_obs.Json.member "traceEvents" v with
           | Some (Protolat_obs.Json.Arr _ as a) ->
             Printf.eprintf "trace JSON ok: %d events in %d processes\n"
               (Protolat_obs.Json.array_length a)
               (List.length t.P.Timeline.processes)
           | _ ->
             Printf.eprintf "trace JSON has no traceEvents array\n";
             exit 1));
      write out json
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Export a run's timeline (packets on the wire, device DMAs, timer \
          arms/fires, retransmissions, injected faults) as Chrome/Perfetto \
          trace-event JSON — load it at ui.perfetto.dev.  --raw dumps the \
          per-instruction trace instead.  Byte-identical for the same \
          seeds at any --jobs count.")
    Term.(const run $ stack_arg $ version_arg $ seed_arg $ out_arg $ raw_arg
          $ seeds_arg $ jobs_arg $ check_arg $ loss_arg)

(* ----- soak --------------------------------------------------------------- *)

let soak_cmd =
  let seeds_arg =
    Cli_common.seeds_arg ~default:4
      ~doc:"Seeds per randomized fault schedule (clean runs once)." ()
  in
  let quick_arg =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"Smaller transfers and fewer rounds (CI).")
  in
  let run seeds jobs quick topo hosts =
    let topology = Cli_common.pair_topology_of topo hosts in
    let r = P.Soak.run ~seeds ~jobs ~quick ~topology () in
    print_string (P.Soak.render r);
    if not (P.Soak.passed r) then exit 1
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Deterministic fault-injection soak: TCP and RPC/BLAST transfers \
          under seeded loss/burst/corruption/duplication/reordering and \
          device-fault schedules, with end-to-end integrity checks and \
          cold-path coverage.  Exits non-zero unless every cell passes and \
          at least 90% of the tracked cold blocks triggered.  The report \
          digest is bit-identical for the same seeds at any --jobs count.")
    Term.(const run $ seeds_arg $ jobs_arg $ quick_arg $ Cli_common.topo_arg
          $ Cli_common.hosts_arg)

(* ----- mflow -------------------------------------------------------------- *)

let mflow_cmd =
  let flows_arg =
    Arg.(
      value
      & opt (list int) [ 1; 8; 64 ]
      & info [ "flows" ] ~docv:"N,N,..."
          ~doc:"Comma-separated concurrent-flow counts to sweep.")
  in
  let seeds_arg =
    Cli_common.seeds_arg ~default:2 ~doc:"Repetitions per flow count." ()
  in
  let requests_arg =
    Arg.(
      value & opt int 32
      & info [ "requests" ] ~doc:"Request/response exchanges per flow.")
  in
  let lifetime_arg =
    Arg.(
      value & opt int 8
      & info [ "lifetime" ]
          ~doc:
            "Mean exchanges a TCP connection carries before churn tears it \
             down and reopens it (0 = one connection per flow, no churn).")
  in
  let think_arg =
    Arg.(
      value & opt float 200.0
      & info [ "think" ]
          ~doc:"Mean closed-loop think time between exchanges [us].")
  in
  let open_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "open-loop" ] ~docv:"US"
          ~doc:
            "Open-loop arrivals with this mean interarrival [us] instead \
             of the closed loop.")
  in
  let json_arg = Cli_common.json_arg () in
  let check_arg =
    Cli_common.check_arg
      ~doc:
        "Parse the JSON report, verify the schema version and cell count, \
         and require every cell to have drained (no leaked session, timer \
         or event); exit non-zero on violation."
      ()
  in
  let out_arg = Cli_common.out_arg () in
  let run stack version flows seeds jobs requests lifetime think open_loop
      topo hosts json check out =
    let workload =
      { P.Mflow.arrival =
          (match open_loop with
          | Some us -> P.Mflow.Open_loop { interarrival_us = us }
          | None -> P.Mflow.Closed_loop { think_us = think });
        req_bytes = P.Mflow.default_workload.P.Mflow.req_bytes;
        resp_bytes = P.Mflow.default_workload.P.Mflow.resp_bytes;
        requests_per_flow = requests;
        conn_lifetime = (if lifetime <= 0 then None else Some lifetime) }
    in
    let spec =
      P.Engine.Spec.make
        ~topology:(Cli_common.pair_topology_of topo hosts)
        ~stack ~config:(P.Config.make version) ()
    in
    let r = P.Mflow.sweep ~flow_counts:flows ~seeds ~jobs ~workload spec in
    Cli_common.write out
      (if json then P.Mflow.to_json r ^ "\n" else P.Mflow.render r);
    if check then
      Cli_common.check_report "mflow" (P.Mflow.to_json r)
        ~cells:(List.length flows * seeds);
    if not (P.Mflow.passed r) then begin
      Printf.eprintf "mflow: a cell failed to drain or reported a violation\n";
      exit 1
    end;
    if check && not json then
      Printf.eprintf "check: JSON well-formed, every cell drained\n"
  in
  Cmd.v
    (Cmd.info "mflow"
       ~doc:
         "Multi-flow traffic engine: N concurrent flows with connection \
          churn through one shared host pair, reporting per-flow and \
          aggregate latency percentiles (p50/p90/p99/max), the demux \
          map-cache hit rate, chain compares, bucket scans and peak timer \
          occupancy per flow count.  The report is byte-identical for the \
          same seeds at any --jobs count.")
    Term.(
      const run $ stack_arg $ version_arg $ flows_arg $ seeds_arg $ jobs_arg
      $ requests_arg $ lifetime_arg $ think_arg $ open_arg
      $ Cli_common.topo_arg $ Cli_common.hosts_arg $ json_arg
      $ check_arg $ out_arg)

(* ----- chaos -------------------------------------------------------------- *)

let chaos_cmd =
  let intensities_arg =
    Arg.(
      value
      & opt (list int) [ 0; 1; 2; 4 ]
      & info [ "intensities" ] ~docv:"N,N,..."
          ~doc:"Comma-separated fault-incident counts per horizon to sweep.")
  in
  let flows_arg =
    Arg.(
      value & opt int 4
      & info [ "flows" ] ~doc:"Concurrent at-most-once client flows.")
  in
  let requests_arg =
    Arg.(value & opt int 24 & info [ "requests" ] ~doc:"Requests per flow.")
  in
  let seeds_arg =
    Cli_common.seeds_arg ~default:2 ~doc:"Schedules per intensity." ()
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Fewer intensities/seeds (CI).")
  in
  let bug_conv =
    let parse s =
      match P.Chaos.bug_of_string s with
      | Some b -> Ok b
      | None -> Error (`Msg ("unknown bug: " ^ s ^ " (none|dedup_off)"))
    in
    let print fmt b = Format.pp_print_string fmt (P.Chaos.bug_string b) in
    Arg.conv (parse, print)
  in
  let bug_arg =
    Arg.(
      value
      & opt bug_conv P.Chaos.No_bug
      & info [ "bug" ]
          ~doc:
            "Deliberately re-introduce a recovery bug (none or dedup_off) \
             so the watchdog has something to catch — the input to --shrink.")
  in
  let shrink_arg =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "Scan generated schedules for one whose run violates an \
             invariant, delta-debug it to a locally-minimal schedule, and \
             emit the repro as versioned JSON (to -o or stdout).  Needs \
             --bug dedup_off (or a genuine recovery bug) to find anything.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a repro file produced by --shrink and exit non-zero \
             unless the run reproduces exactly the violations the file \
             says to expect.")
  in
  let json_arg = Cli_common.json_arg () in
  let check_arg =
    Cli_common.check_arg
      ~doc:
        "Parse the JSON report, verify the schema version and cell count; \
         exit non-zero on violation."
      ()
  in
  let out_arg = Cli_common.out_arg () in
  let run seed intensities flows requests seeds jobs quick bug shrink replay
      topo hosts json check out =
    let topology = Cli_common.pair_topology_of topo hosts in
    match replay with
    | Some path ->
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let data = really_input_string ic len in
      close_in ic;
      (match P.Chaos.case_of_json data with
      | Error msg ->
        Printf.eprintf "chaos replay: %s\n" msg;
        exit 1
      | Ok (c, expect) ->
        let o, matched = P.Chaos.replay c ~expect in
        Printf.printf
          "replay %s: seed=%d flows=%d requests=%d bug=%s events=%d\n" path
          c.P.Chaos.seed c.P.Chaos.flows c.P.Chaos.requests
          (P.Chaos.bug_string c.P.Chaos.bug)
          (List.length c.P.Chaos.sched);
        Printf.printf "  %d/%d exchanges, %d reconnects, %d duplicate execs\n"
          o.P.Chaos.completed o.P.Chaos.total o.P.Chaos.reconnects
          o.P.Chaos.duplicate_execs;
        let show = function [] -> "(none)" | ns -> String.concat ", " ns in
        Printf.printf "  expected violations: %s\n" (show expect);
        Printf.printf "  observed violations: %s\n"
          (show (P.Chaos.failure_names o));
        if matched then print_endline "  verdict: MATCH"
        else begin
          print_endline "  verdict: MISMATCH";
          exit 1
        end)
    | None ->
      if shrink then begin
        let horizon_us = 200_000.0 in
        let tries = 32 in
        let rec scan i =
          if i >= tries then None
          else begin
            let s = seed + i in
            let sched = P.Chaos.gen ~seed:s ~intensity:4 ~horizon_us in
            let c =
              P.Chaos.case ~flows ~requests ~horizon_us ~bug ~topology
                ~seed:s sched
            in
            let o = P.Chaos.run_case c in
            if P.Chaos.ok o then scan (i + 1) else Some (c, o)
          end
        in
        match scan 0 with
        | None ->
          Printf.eprintf
            "chaos shrink: no generated schedule in seeds %d..%d fails \
             (bug=%s) — nothing to shrink\n"
            seed (seed + tries - 1) (P.Chaos.bug_string bug);
          exit 1
        | Some (c, o) ->
          Printf.eprintf
            "chaos shrink: seed %d fails (%s) with %d events; shrinking...\n"
            c.P.Chaos.seed
            (String.concat ", " (P.Chaos.failure_names o))
            (List.length c.P.Chaos.sched);
          (match P.Chaos.shrink c with
          | None ->
            Printf.eprintf "chaos shrink: case stopped failing under re-run\n";
            exit 1
          | Some r ->
            let mc = { c with P.Chaos.sched = r.P.Chaos.minimal } in
            let mo = P.Chaos.run_case mc in
            let expect = P.Chaos.failure_names mo in
            Printf.eprintf
              "chaos shrink: %d -> %d events in %d runs (target %s)\n"
              (List.length c.P.Chaos.sched)
              (List.length r.P.Chaos.minimal)
              r.P.Chaos.runs r.P.Chaos.target;
            List.iter
              (fun it -> Printf.eprintf "  %s\n" (P.Chaos.item_string it))
              r.P.Chaos.minimal;
            Cli_common.write out (P.Chaos.case_to_json ~expect mc))
      end
      else begin
        let intensities = if quick then [ 0; 2; 4 ] else intensities in
        let seeds = if quick then 1 else seeds in
        let cells =
          P.Chaos.run_matrix ~flows ~requests ~bug ~topology ~intensities
            ~seeds ~jobs ~seed ()
        in
        Cli_common.write out
          (if json then P.Chaos.matrix_to_json cells ^ "\n"
           else P.Chaos.render cells);
        if check then begin
          Cli_common.check_report "chaos" (P.Chaos.matrix_to_json cells)
            ~cells:(List.length intensities * seeds);
          if not json then
            Printf.eprintf "check: JSON well-formed, digest %s\n"
              (P.Chaos.digest cells)
        end;
        if not (P.Chaos.passed cells) then begin
          Printf.eprintf "chaos: an invariant was violated\n";
          exit 1
        end
      end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Host-lifecycle chaos: seeded crash/restart, link-partition, \
          clock-skew and cache-pressure schedules against an at-most-once \
          TCP workload watched by the invariant watchdog (at-most-once \
          execution, payload integrity, metrics conservation, liveness at \
          quiesce).  --shrink delta-debugs a failing schedule to a minimal \
          replayable repro file; --replay re-runs one bit-identically.  \
          Reports are byte-identical for the same seeds at any --jobs.")
    Term.(
      const run $ seed_arg $ intensities_arg $ flows_arg $ requests_arg
      $ seeds_arg $ jobs_arg $ quick_arg $ bug_arg $ shrink_arg $ replay_arg
      $ Cli_common.topo_arg $ Cli_common.hosts_arg $ json_arg $ check_arg
      $ out_arg)

(* ----- fabric ------------------------------------------------------------- *)

let fabric_cmd =
  let fan_ins_arg =
    Arg.(
      value
      & opt (list int) [ 2; 4; 8; 16; 32; 64 ]
      & info [ "fan-ins" ] ~docv:"N,N,..."
          ~doc:
            "Comma-separated client fan-in degrees to sweep (--hosts N, \
             when not 2, overrides this with the single degree N-1).")
  in
  let requests_arg =
    Arg.(
      value & opt int 4
      & info [ "requests" ] ~doc:"Request/response exchanges per client.")
  in
  let queue_arg =
    Arg.(
      value & opt int P.Incast.default_workload.P.Incast.port_queue_frames
      & info [ "queue" ] ~docv:"FRAMES"
          ~doc:"Switch egress queue bound per port.")
  in
  let seeds_arg =
    Cli_common.seeds_arg ~doc:"Repetitions per fan-in degree." ()
  in
  let json_arg = Cli_common.json_arg () in
  let check_arg =
    Cli_common.check_arg
      ~doc:
        "Parse the JSON report, verify the schema version and cell count, \
         and require every cell to have drained with no conservation-law \
         violation; exit non-zero otherwise."
      ()
  in
  let out_arg = Cli_common.out_arg () in
  let run seed fan_ins requests queue seeds jobs topo hosts json check out =
    (match topo with
    | Protolat_netsim.Topology.Star -> ()
    | sh ->
      Printf.eprintf
        "protolat fabric: only --topo star is supported (got %s)\n"
        (Protolat_netsim.Topology.shape_name sh);
      exit 124);
    let fan_ins = if hosts <> 2 then [ hosts - 1 ] else fan_ins in
    let wl =
      { P.Incast.default_workload with
        P.Incast.requests_per_client = requests;
        port_queue_frames = queue }
    in
    let r = P.Incast.sweep ~wl ~fan_ins ~seeds ~jobs ~seed () in
    Cli_common.write out
      (if json then P.Incast.to_json r else P.Incast.render r);
    if check then begin
      Cli_common.check_report "fabric" (P.Incast.to_json r)
        ~cells:(List.length fan_ins * seeds);
      if not json then
        Printf.eprintf "check: JSON well-formed, every cell drained\n"
    end;
    if not (P.Incast.passed r) then begin
      Printf.eprintf "fabric: a cell failed to drain or broke a law\n";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "fabric"
       ~doc:
         "N-client incast over the switched star fabric: clients behind a \
          store-and-forward switch fire synchronized request bursts at one \
          server, reporting p50/p90/p99/p99.9 completion latency, switch \
          queue drops and retransmissions per fan-in degree.  Each cell \
          runs in deterministic lock-step epochs; cells spread across \
          --jobs domains, and the report is byte-identical at any job \
          count.")
    Term.(
      const run $ seed_arg $ fan_ins_arg $ requests_arg $ queue_arg
      $ seeds_arg $ jobs_arg
      $ Arg.(
          value
          & opt Cli_common.topo_conv Protolat_netsim.Topology.Star
          & info [ "topo" ] ~doc:"Fabric shape (only star is supported).")
      $ Cli_common.hosts_arg $ json_arg $ check_arg $ out_arg)

(* ----- search ------------------------------------------------------------- *)

let search_cmd =
  let budget_arg =
    Arg.(value & opt int 600
         & info [ "budget" ] ~docv:"N"
             ~doc:"Scorer evaluations per stack x geometry cell, the five \
                   named layouts included (at least 5).")
  in
  let seeds_arg =
    Cli_common.seeds_arg ~default:2
      ~doc:"Simulated-annealing restarts per cell." ()
  in
  let geometry_arg =
    Arg.(value & opt (some (list int)) None
         & info [ "geometry" ] ~docv:"KB"
             ~doc:"Comma-separated i-cache sizes in KB to search, each a \
                   power of two (default: the full 4,8,16,32 layout \
                   matrix).")
  in
  let quick_arg =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:"CI configuration: budget 160, 1 restart, 8 KB geometry \
                   only.")
  in
  let json_arg = Cli_common.json_arg () in
  let check_arg =
    Cli_common.check_arg
      ~doc:
        "Re-simulate each cell's best layout and every named layout through \
         the full path (build the image, fresh memory system) and require \
         bit-identical steady times, plus best-found <= best seeded named \
         layout; exit non-zero on violation."
      ()
  in
  let out_arg = Cli_common.out_arg () in
  let run budget seeds geometry quick json check out jobs =
    let budget = if quick then 160 else budget in
    let seeds = if quick then 1 else seeds in
    let geometries =
      match geometry with
      | Some g -> g
      | None -> if quick then [ 8 ] else P.Layoutsearch.geometries
    in
    let t =
      (* a budget below the named layouts or a bad geometry *)
      try P.Layoutsearch.run ~budget ~seeds ~geometries ~jobs ()
      with Invalid_argument msg ->
        Printf.eprintf "protolat search: %s\n" msg;
        exit 124
    in
    let doc =
      if json then P.Layoutsearch.to_json t ^ "\n"
      else
        P.Layoutsearch.render t
        ^ Printf.sprintf "\ndigest %s  (%.1f s wall, %d jobs)\n"
            (P.Layoutsearch.digest t) t.P.Layoutsearch.wall_s
            t.P.Layoutsearch.jobs
    in
    Cli_common.write out doc;
    if check then
      match P.Layoutsearch.check t with
      | Ok () ->
        if not json then
          print_endline
            "check: every best genome and named layout re-simulates \
             bit-identically, and each best beats or matches the seeded \
             hand-picked layouts"
      | Error msg ->
        Printf.eprintf "check FAILED: %s\n" msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:
         "Attrib-guided automated code-layout search: greedy hill-climb \
          then seeded simulated annealing over unit order, i-cache set \
          offsets and clone toggles, each candidate scored on the i-cache \
          alone (one base simulation per stack, exact against a full \
          simulation of the candidate).  Seeded with the paper's named \
          layouts, so the best found placement never loses to the best \
          hand-picked one.  Deterministic: equal digests at any --jobs.")
    Term.(
      const run $ budget_arg $ seeds_arg $ geometry_arg $ quick_arg
      $ json_arg $ check_arg $ out_arg $ jobs_arg)

(* ----- sweep -------------------------------------------------------------- *)

let sweep_cmd =
  let run stack rounds jobs =
    Printf.printf "%-8s %12s %10s %8s %8s\n" "Version" "RTT [us]" "Tp [us]"
      "mCPI" "iCPI";
    let results =
      Protolat_util.Dpool.run ~jobs
        (List.map
           (fun v ->
             fun () ->
              P.Engine.run
                (P.Engine.Spec.make ~rounds ~stack ~config:(P.Config.make v)
                   ()))
           P.Paper.version_order)
    in
    List.iter2
      (fun v r ->
        let s = r.P.Engine.steady in
        Printf.printf "%-8s %12.1f %10.1f %8.2f %8.2f\n"
          (P.Config.version_name v)
          (Stats.mean r.P.Engine.rtts)
          s.M.Perf.time_us s.M.Perf.mcpi s.M.Perf.icpi)
      P.Paper.version_order results
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Measure all six versions of a stack.")
    Term.(const run $ stack_arg $ rounds_arg $ jobs_arg)

let () =
  let info =
    Cmd.info "protolat" ~version:"1.0.0"
      ~doc:
        "Reproduction of Mosberger et al., Analysis of Techniques to \
         Improve Protocol Processing Latency (SIGCOMM '96)."
  in
  exit (Cmd.eval (Cmd.group info [ run_cmd; tables_cmd; figures_cmd; layout_cmd; sweep_cmd; trace_cmd;
          profile_cmd; spans_cmd; soak_cmd; mflow_cmd; chaos_cmd;
          fabric_cmd; search_cmd ]))

(* Benchmark harness: regenerates every table and figure of the paper
   (printed with the published values alongside), then runs Bechamel
   microbenchmarks of the core data structures — including the §2.2.1
   hash-table traversal comparison, which is a genuine wall-clock claim.

   Usage:  dune exec bench/main.exe -- [quick] [only tableN|figures|layout|micro]
                                       [-j N | --jobs N]

   Wall-clock performance of the simulator itself is measured by the
   separate perfbench harness (see perfbench/README.md). *)

module P = Protolat
module Table = Protolat_util.Table
module Xk = Protolat_xkernel
module T = Protolat_tcpip

let quick = Array.exists (( = ) "quick") Sys.argv

let only =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = "only" then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let jobs =
  let rec find i =
    if i >= Array.length Sys.argv then Protolat_util.Dpool.default_jobs ()
    else if (Sys.argv.(i) = "-j" || Sys.argv.(i) = "--jobs")
            && i + 1 < Array.length Sys.argv
    then
      match int_of_string_opt Sys.argv.(i + 1) with
      | Some n -> n
      | None ->
          prerr_endline
            ("bench: invalid jobs value '" ^ Sys.argv.(i + 1)
           ^ "', expected an integer");
          exit 2
    else find (i + 1)
  in
  max 1 (find 1)

let want name =
  match only with None -> true | Some o -> String.equal o name

let banner s = Printf.printf "\n===== %s =====\n%!" s

(* ----- the paper's tables and figures ------------------------------------- *)

let run_tables () =
  if want "table1" then Table.print (P.Experiments.table1 ());
  if want "table2" then Table.print (P.Experiments.table2 ());
  if want "table3" then Table.print (P.Experiments.table3 ());
  let need_full =
    List.exists want
      [ "table4"; "table5"; "table6"; "table7"; "table8"; "table9" ]
  in
  if need_full then begin
    let samples_tcp, samples_rpc, rounds =
      if quick then (3, 3, 12) else (10, 5, 24)
    in
    Printf.printf
      "\n(running %d TCP/IP and %d RPC samples of %d measured roundtrips per version, %d job%s)\n%!"
      samples_tcp samples_rpc rounds jobs (if jobs = 1 then "" else "s");
    let results =
      P.Experiments.full_run ~samples_tcp ~samples_rpc ~rounds ~jobs ()
    in
    if want "table4" then Table.print (P.Experiments.table4 results);
    if want "table5" then Table.print (P.Experiments.table5 results);
    if want "table6" then Table.print (P.Experiments.table6 results);
    if want "table7" then Table.print (P.Experiments.table7 results);
    if want "table8" then Table.print (P.Experiments.table8 results);
    if want "table9" then Table.print (P.Experiments.table9 results)
  end;
  if want "figures" || only = None then begin
    banner "Figure 1: protocol stacks";
    print_endline (P.Experiments.figure1 ());
    banner "Figure 2: i-cache footprints (TCP/IP)";
    print_endline (P.Experiments.figure2 ())
  end;
  if want "extras" || only = None then begin
    Table.print (P.Experiments.map_traversal ());
    Table.print (P.Experiments.throughput ());
    Table.print (P.Experiments.micro_positioning ());
    Table.print (P.Experiments.dec_unix_mcpi ());
    Table.print (P.Bsd_model.report ())
  end;
  if want "layout" || only = None then begin
    banner "Layout sweep (incremental: pc rewrite + trace replay)";
    (* code images are immutable and cached per (config, layout); build
       them up front so the sweep comparison times sweep mechanics, not
       the shared one-time image construction *)
    List.iter
      (fun layout ->
        ignore
          (P.Engine.layout_for (P.Config.make P.Config.Clo) P.Engine.Tcpip
             ~layout ()))
      P.Experiments.layout_candidates;
    let t0 = Unix.gettimeofday () in
    let tbl = P.Experiments.layout_sweep_table () in
    let inc_s = Unix.gettimeofday () -. t0 in
    Table.print tbl;
    let t1 = Unix.gettimeofday () in
    ignore (P.Experiments.layout_sweep ~incremental:false ());
    let full_s = Unix.gettimeofday () -. t1 in
    Printf.printf
      "incremental sweep %.3fs vs full simulation per layout %.3fs (%.1fx)\n%!"
      inc_s full_s
      (full_s /. Float.max inc_s 1e-9)
  end;
  if want "fabric" || only = None then begin
    banner "Fabric: incast over the switched star topology";
    Table.print
      (P.Experiments.incast_latency
         ~fan_ins:(if quick then [ 2; 8 ] else [ 2; 4; 8; 16; 32; 64 ])
         ~jobs ())
  end;
  if want "ablations" || only = None then begin
    banner "Ablations";
    Table.print (P.Ablation.classifier ());
    Table.print (P.Ablation.cache_size ());
    Table.print (P.Ablation.linear_vs_bipartite ());
    Table.print (P.Ablation.future_machine ());
    Table.print (P.Ablation.layout_matrix ())
  end

(* ----- Bechamel microbenchmarks ---------------------------------------------- *)

let make_populated_map pct =
  let buckets = 1024 in
  let m = Xk.Map.create ~buckets () in
  for k = 0 to (buckets * pct / 100) - 1 do
    Xk.Map.bind m (Printf.sprintf "key%06d" k) k
  done;
  m

let bechamel_tests () =
  let open Bechamel in
  let map10 = make_populated_map 10 in
  let sink = ref 0 in
  let traversal_list =
    Test.make ~name:"map_traverse_nonempty_list_10pct"
      (Staged.stage (fun () ->
           Xk.Map.traverse map10 (fun _ v -> sink := !sink + v)))
  in
  let traversal_full =
    Test.make ~name:"map_traverse_full_scan_10pct"
      (Staged.stage (fun () ->
           Xk.Map.traverse_all_buckets map10 (fun _ v -> sink := !sink + v)))
  in
  let resolve_hit =
    Test.make ~name:"map_resolve_one_entry_cache_hit"
      (Staged.stage (fun () -> ignore (Xk.Map.resolve map10 "key000001")))
  in
  let cksum_buf = Bytes.make 40 '\x5a' in
  let cksum =
    Test.make ~name:"internet_checksum_40B"
      (Staged.stage (fun () -> ignore (T.Checksum.compute cksum_buf 0 40)))
  in
  let cache =
    let c =
      Protolat_machine.Cache.create ~name:"bench" ~size_bytes:8192
        ~block_bytes:32
    in
    let i = ref 0 in
    Test.make ~name:"icache_simulator_access"
      (Staged.stage (fun () ->
           incr i;
           ignore (Protolat_machine.Cache.access c (!i * 68 mod 65536))))
  in
  let image_build =
    Test.make ~name:"image_build_tcpip_bipartite"
      (Staged.stage (fun () ->
           ignore
             (P.Engine.layout_for (P.Config.make P.Config.Clo) P.Engine.Tcpip
                ())))
  in
  let roundtrips name version =
    Test.make ~name
      (Staged.stage (fun () ->
           ignore
             (P.Engine.run
                (P.Engine.Spec.make ~rounds:4 ~warmup:2 ~stack:P.Engine.Tcpip
                   ~config:(P.Config.make version) ()))))
  in
  Test.make_grouped ~name:"protolat"
    [ traversal_list; traversal_full; resolve_hit; cksum; cache; image_build;
      roundtrips "simulate_roundtrips_std" P.Config.Std;
      roundtrips "simulate_roundtrips_all" P.Config.All ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  banner "Bechamel microbenchmarks (wall clock)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.2 else 0.5))
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let results = List.map (fun inst -> Analyze.all ols inst raw) instances in
  let merged = Analyze.merge ols instances results in
  let tbl = Hashtbl.find merged (Measure.label Instance.monotonic_clock) in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "%-48s %12.1f ns/run\n" name est
      | _ -> Printf.printf "%-48s (no estimate)\n" name)
    (List.sort compare rows)

let () =
  run_tables ();
  if want "micro" || only = None then run_bechamel ();
  print_newline ()

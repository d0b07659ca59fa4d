(* Bechamel microbenchmarks of the core data structures, including the
   §2.2.1 hash-table traversal comparison, which is a genuine wall-clock
   claim.  The paper's tables and figures are regenerated by
   [protolat tables] and [protolat figures].

   Usage:  dune exec bench/main.exe -- [quick]

   [quick] shortens each benchmark's time quota.  Wall-clock performance
   of the simulator itself is measured by the separate perfbench harness
   (see perfbench/README.md). *)

module P = Protolat
module Xk = Protolat_xkernel
module T = Protolat_tcpip

let quick = Array.exists (( = ) "quick") Sys.argv

let banner s = Printf.printf "\n===== %s =====\n%!" s

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
  run_bechamel ();
  print_newline ()

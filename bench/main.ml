(* Bechamel microbenchmarks of the core data structures, including the
   §2.2.1 hash-table traversal comparison, which is a genuine wall-clock
   claim.  Each row prints nanoseconds and words allocated per run.  The
   paper's tables and figures are regenerated by [protolat tables] and
   [protolat figures].

   Usage:  dune exec bench/main.exe -- [quick]

   [quick] shortens each benchmark's time quota.  Wall-clock performance
   of the simulator itself is measured by the separate perfbench harness
   (see perfbench/README.md). *)

module P = Protolat
module Xk = Protolat_xkernel
module T = Protolat_tcpip
module Ns = Protolat_netsim

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
  let memsys_create =
    let module M = Protolat_machine in
    Test.make ~name:"memsys_create_default"
      (Staged.stage (fun () -> ignore (M.Memsys.create M.Params.default)))
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
  (* the same ping-pong on the null meter: what the protocol code itself
     costs, connection set-up included, next to the metered rows *)
  let bare_roundtrips =
    Test.make ~name:"tcpip_bare_roundtrips"
      (Staged.stage (fun () ->
           let p =
             T.Stack.pair_of_net
               (T.Stack.make_net ~topology:(Ns.Topology.pair ()) ())
           in
           let c, _ = T.Stack.establish p ~rounds:32 in
           T.Tcptest.start c;
           while
             T.Tcptest.rounds_completed c < 32 && Ns.Sim.step p.T.Stack.sim
           do
             ()
           done))
  in
  (* the event core alone: a fresh two-host simulator, 1,000 timers on a
     fixed cycle of delays (equal deadlines collide), every fourth
     cancelled, then the run that passes their positions *)
  let timer_delays = [| 0.0; 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0 |] in
  let timers =
    Test.make ~name:"timers_two_hosts_1k"
      (Staged.stage (fun () ->
           let sim = Ns.Sim.create () in
           let hosts =
             Array.init 2 (fun host -> Ns.Host_env.create sim ~host ())
           in
           for i = 0 to 999 do
             let env = hosts.(i land 1) in
             let h =
               Ns.Host_env.timeout env ~delay:timer_delays.(i land 7) ignore
             in
             if i land 3 = 0 then
               ignore (Xk.Event.cancel env.Ns.Host_env.events h)
           done;
           ignore (Ns.Sim.run sim)))
  in
  Test.make_grouped ~name:"protolat"
    [ traversal_list; traversal_full; resolve_hit; cksum; cache; memsys_create;
      image_build;
      roundtrips "simulate_roundtrips_std" P.Config.Std;
      roundtrips "simulate_roundtrips_all" P.Config.All;
      bare_roundtrips; timers ]

(* Wall clock and allocation per run.  Words allocated are minor + major -
   promoted, each an OLS estimate per run (the count perfbench takes per
   call), so an engine allocation regression shows here without a
   perfbench run. *)
let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  banner "Bechamel microbenchmarks (wall clock, words allocated)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances =
    Instance.[ monotonic_clock; minor_allocated; major_allocated; promoted ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.2 else 0.5))
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let results = List.map (fun inst -> Analyze.all ols inst raw) instances in
  let merged = Analyze.merge ols instances results in
  let per_run inst name =
    match
      Analyze.OLS.estimates
        (Hashtbl.find (Hashtbl.find merged (Measure.label inst)) name)
    with
    | Some [ est ] -> Some est
    | _ | (exception Not_found) -> None
  in
  let names =
    Hashtbl.fold
      (fun k _ acc -> k :: acc)
      (Hashtbl.find merged (Measure.label Instance.monotonic_clock))
      []
  in
  List.iter
    (fun name ->
      let ns =
        match per_run Instance.monotonic_clock name with
        | Some est -> Printf.sprintf "%12.1f ns/run" est
        | None -> Printf.sprintf "%19s" "(no estimate)"
      in
      let words =
        match
          ( per_run Instance.minor_allocated name,
            per_run Instance.major_allocated name,
            per_run Instance.promoted name )
        with
        | Some mi, Some ma, Some pr ->
          Printf.sprintf "%12.1f w/run" (mi +. ma -. pr)
        | _ -> Printf.sprintf "%18s" "(no estimate)"
      in
      Printf.printf "%-48s %s %s\n" name ns words)
    (List.sort compare names)

let () =
  run_bechamel ();
  print_newline ()

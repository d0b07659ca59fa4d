(* Every JSON document the reports export, byte-pinned by MD5.  The
   goldens in test/golden/ cover the CLI's mflow, chaos, fabric and
   profile reports; these pins cover each exporter directly, including the
   ones no golden reaches (spans, its Perfetto export, layout search, the
   chaos repro file), so a change to how JSON is written cannot move a
   single byte unnoticed. *)

module P = Protolat
module C = P.Chaos
module LS = P.Layoutsearch
module Ns = Protolat_netsim

let md5 s = Digest.to_hex (Digest.string s)

let profile () =
  P.Profile.to_json
    (P.Profile.collect ~rounds:12 ~stack:P.Engine.Tcpip ~version:P.Config.All
       ())

let spans () =
  P.Spans.collect ~rounds:12
    ~layouts:[ P.Config.Bipartite; P.Config.Pessimal ]
    ~stack:P.Engine.Tcpip ~version:P.Config.All ()

(* a hand-built search result: no search runs, and the wall-clock fields
   are fixed *)
let search () =
  let cell stack icache_kb named seeded trajectory =
    { LS.stack;
      icache_kb;
      evals = 37;
      eval_s = 0.125;
      named;
      seeded;
      best = { LS.perm = [| 2; 0; 1 |]; offs = [| 5; -1; 260 |];
               cold = [| true; false; true |] };
      best_us = 101.5;
      best_order = [ "tcp_output"; "ip_input"; "lance_intr" ];
      greedy_us = 102.0 /. 3.0;
      trajectory }
  in
  LS.to_json
    { LS.cells =
        [ cell P.Engine.Tcpip 8
            [ (P.Config.Bipartite, 98.25); (P.Config.Pessimal, 140.0) ]
            [ P.Config.Bipartite ]
            [ { LS.eval = 1; us = 110.0 }; { LS.eval = 9; us = 101.5 } ];
          cell P.Engine.Rpc 4 [] [] [] ];
      budget = 40;
      seeds = 2;
      jobs = 1;
      wall_s = 1.5 }

(* every one of the seven schedule events, on a switched fabric *)
let chaos_case () =
  let at at_us ev = { C.at_us; ev } in
  let sched =
    [ at 1_000.0 (C.Crash C.Client);
      at 9_000.0 (C.Restart C.Client);
      at 12_000.0 C.Partition_on;
      at 15_500.0 C.Partition_off;
      at 20_000.0 (C.Skew (C.Server, 1.25));
      at 30_000.0 (C.Skew_reset C.Server);
      at 31_000.0 (C.Cache_flush C.Server) ]
  in
  C.case_to_json
    ~expect:[ "at_most_once"; "liveness.flows" ]
    (C.case ~flows:3 ~requests:5 ~bug:C.Dedup_off
       ~topology:(Ns.Topology.star ~hosts:2 ())
       ~seed:7 sched)
  (* an empty schedule is an empty row list *)
  ^ C.case_to_json (C.case ~seed:1 [])

let chaos_matrix () =
  C.matrix_to_json
    (C.run_matrix ~flows:2 ~requests:8 ~bug:C.Dedup_off ~intensities:[ 0; 4 ]
       ~seeds:1 ~seed:7 ())

let mflow () =
  let wl =
    { P.Mflow.default_workload with P.Mflow.requests_per_flow = 8 }
  in
  let spec stack =
    P.Engine.Spec.default ~stack ~config:(P.Config.make P.Config.All)
  in
  P.Mflow.to_json
    (P.Mflow.sweep ~flow_counts:[ 1; 4 ] ~seeds:1 ~workload:wl
       (spec P.Engine.Tcpip))
  ^ P.Mflow.to_json
      (P.Mflow.sweep ~flow_counts:[ 2 ] ~seeds:1
         ~workload:{ wl with P.Mflow.conn_lifetime = None }
         (spec P.Engine.Rpc))

let incast () =
  P.Incast.to_json (P.Incast.sweep ~fan_ins:[ 2; 4 ] ~seeds:1 ~seed:42 ())

let test_exports_pinned () =
  let s = spans () in
  List.iter
    (fun (name, want, doc) -> Alcotest.(check string) name want (md5 doc))
    [ ( "Profile.to_json", "0d0e7b58d232b230be31a2abbf9280eb",
        profile () );
      ( "Spans.to_json", "fb72a31d4c9d29722cece867fb75c588",
        P.Spans.to_json s );
      ( "Spans.perfetto", "a5500d6e4df48eab411bbe3fc351d104",
        P.Spans.perfetto s );
      ( "Layoutsearch.to_json", "38957f86bbb484302aa88d39f2d93c23",
        search () );
      ( "Chaos.case_to_json", "e3e80cceb1a20edce208b151a7343e9d",
        chaos_case () );
      ( "Chaos.matrix_to_json", "143aa5ad73cc2f95a774efb91374c3de",
        chaos_matrix () );
      ( "Mflow.to_json", "62caf36256a77a208d49fabd64409007",
        mflow () );
      ( "Incast.to_json", "d96cbe513ceb68270e33fcba53426db3",
        incast () ) ]

let suite =
  ( "export",
    [ Alcotest.test_case "every JSON export pinned" `Quick test_exports_pinned ]
  )

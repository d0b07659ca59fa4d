module P = Protolat
module Stats = Protolat_util.Stats
module Obs = Protolat_obs

let tcp_spec = P.Engine.Spec.default ~stack:P.Engine.Tcpip ~config:(P.Config.make P.Config.All)

let quick_wl =
  { P.Mflow.default_workload with P.Mflow.requests_per_flow = 8 }

(* ----- percentile math pinned against a hand-computed distribution ------- *)

let test_percentiles_pinned () =
  (* 1..100 in scrambled order: nearest-rank pN of n=100 is exactly N *)
  let xs = List.init 100 (fun i -> float_of_int (((i * 37) mod 100) + 1)) in
  let q = Stats.quantiles xs in
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 q.Stats.p50;
  Alcotest.(check (float 0.0)) "p90 of 1..100" 90.0 q.Stats.p90;
  Alcotest.(check (float 0.0)) "p99 of 1..100" 99.0 q.Stats.p99;
  Alcotest.(check (float 0.0)) "max of 1..100" 100.0 q.Stats.max;
  Alcotest.(check int) "n" 100 q.Stats.n;
  (* nearest rank rounds up: p50 of 4 samples is the 2nd smallest *)
  Alcotest.(check (float 0.0)) "p50 of {10,20,30,40}" 20.0
    (Stats.percentile 50.0 [ 40.0; 10.0; 30.0; 20.0 ]);
  (* p99 of a small sample is the largest *)
  Alcotest.(check (float 0.0)) "p99 of {10,20,30,40}" 40.0
    (Stats.percentile 99.0 [ 40.0; 10.0; 30.0; 20.0 ]);
  Alcotest.(check (float 0.0)) "p0 is the minimum" 10.0
    (Stats.percentile 0.0 [ 40.0; 10.0; 30.0; 20.0 ]);
  Alcotest.(check (float 0.0)) "p100 is the maximum" 40.0
    (Stats.percentile 100.0 [ 40.0; 10.0; 30.0; 20.0 ])

(* ----- determinism at any job count -------------------------------------- *)

let test_jobs_determinism () =
  let sweep jobs =
    P.Mflow.sweep ~flow_counts:[ 1; 8 ] ~seeds:2 ~jobs ~workload:quick_wl
      tcp_spec
  in
  let a = sweep 1 and b = sweep 3 in
  Alcotest.(check string) "byte-identical JSON at jobs 1 vs 3"
    (P.Mflow.to_json a) (P.Mflow.to_json b);
  Alcotest.(check string) "byte-identical rendering"
    (P.Mflow.render a) (P.Mflow.render b)

(* ----- churn leaves no leaked TCBs or timers ------------------------------ *)

let test_churn_drains () =
  let wl =
    { quick_wl with
      P.Mflow.conn_lifetime = Some 2;
      requests_per_flow = 10 }
  in
  let c = P.Mflow.run_cell ~workload:wl ~flows:8 tcp_spec in
  Alcotest.(check bool) "drained (no TCBs, timers or sim events left)" true
    c.P.Mflow.drained;
  Alcotest.(check int) "every exchange completed" 80 c.P.Mflow.requests;
  Alcotest.(check bool)
    (Printf.sprintf "churn reopened connections (%d opened)" c.P.Mflow.conns)
    true
    (c.P.Mflow.conns > 8 * 2);
  Alcotest.(check bool) "housekeeping sweeps ran" true (c.P.Mflow.sweeps > 0);
  Alcotest.(check bool) "latency samples collected" true
    (c.P.Mflow.lat.Stats.Hist.n = 80)

(* ----- the §2.2.3 premise: hit rate falls as flows exceed the cache ------- *)

let test_hit_rate_falls_with_flows () =
  (* Isolate demux locality: no churn (no listen-path misses beyond the
     first SYN per flow), and the inlined cache test disabled — with it
     on, every miss re-resolves through the just-refilled cache, which
     compresses the measured rate toward 1/(2-h) and buries the locality
     signal.  With it off each lookup counts exactly one resolve, so the
     counters report the true hit rate, which interleaving drives down
     as ~1/flows. *)
  let wl =
    { P.Mflow.default_workload with
      P.Mflow.requests_per_flow = 16;
      conn_lifetime = None }
  in
  let spec =
    P.Engine.Spec.default ~stack:P.Engine.Tcpip
      ~config:
        (P.Config.make
           ~opts:
             { Protolat_tcpip.Opts.improved with
               Protolat_tcpip.Opts.map_cache_inline = false }
           P.Config.All)
  in
  let cell flows = P.Mflow.run_cell ~workload:wl ~flows spec in
  let h n = P.Mflow.hit_rate (cell n).P.Mflow.server_map in
  let h1 = h 1 and h8 = h 8 and h64 = h 64 in
  Alcotest.(check bool)
    (Printf.sprintf "hit rate monotonically falls (%.3f >= %.3f >= %.3f)" h1
       h8 h64)
    true
    (h1 >= h8 && h8 >= h64);
  Alcotest.(check bool)
    (Printf.sprintf "and strictly: 1 flow %.3f > 64 flows %.3f" h1 h64)
    true (h1 > h64);
  Alcotest.(check bool)
    (Printf.sprintf "single flow mostly cache hits (%.3f)" h1)
    true (h1 > 0.5)

(* ----- RPC flows through the shared channel pool -------------------------- *)

let test_rpc_cell () =
  let spec =
    P.Engine.Spec.default ~stack:P.Engine.Rpc
      ~config:(P.Config.make P.Config.All)
  in
  let c = P.Mflow.run_cell ~workload:quick_wl ~flows:6 spec in
  Alcotest.(check int) "every call answered" 48 c.P.Mflow.requests;
  Alcotest.(check bool) "drained" true c.P.Mflow.drained;
  Alcotest.(check bool) "latency sampled" true
    (c.P.Mflow.lat.Stats.Hist.p50 > 0.0)

(* From 19 flows the RPC run collapses (a known open defect).  The cell
   must still come back as data: either every request completed, or the
   stuck flows are reported as a [liveness.flows] violation. *)
let test_rpc_collapse_is_reported () =
  let spec =
    P.Engine.Spec.default ~stack:P.Engine.Rpc
      ~config:(P.Config.make P.Config.All)
  in
  let c = P.Mflow.run_cell ~flows:19 spec in
  let all = 19 * P.Mflow.default_workload.P.Mflow.requests_per_flow in
  let stuck =
    List.exists
      (fun v -> String.starts_with ~prefix:"liveness.flows " v)
      c.P.Mflow.violations
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d requests, or liveness.flows reported"
       c.P.Mflow.requests all)
    true
    (c.P.Mflow.requests = all || stuck)

(* ----- open-loop arrivals ------------------------------------------------- *)

let test_open_loop () =
  let wl =
    { quick_wl with
      P.Mflow.arrival = P.Mflow.Open_loop { interarrival_us = 500.0 } }
  in
  let c = P.Mflow.run_cell ~workload:wl ~flows:4 tcp_spec in
  Alcotest.(check int) "every arrival eventually served" 32
    c.P.Mflow.requests;
  Alcotest.(check bool) "drained" true c.P.Mflow.drained

(* ----- report JSON is well-formed and versioned --------------------------- *)

let test_json_well_formed () =
  let r =
    P.Mflow.sweep ~flow_counts:[ 1; 4 ] ~seeds:1 ~workload:quick_wl tcp_spec
  in
  match Obs.Json.parse (P.Mflow.to_json r) with
  | Error e -> Alcotest.fail ("mflow JSON does not parse: " ^ e)
  | Ok v ->
    (match Obs.Json.member "schema_version" v with
    | Some (Obs.Json.Num n) ->
      Alcotest.(check int) "schema_version" Obs.Json.schema_version
        (int_of_float n)
    | _ -> Alcotest.fail "schema_version missing");
    (match Obs.Json.member "cells" v with
    | Some cells ->
      Alcotest.(check int) "one cell per (flows, seed)" 2
        (Obs.Json.array_length cells)
    | None -> Alcotest.fail "cells missing");
    (match Obs.Json.member "summary" v with
    | Some s -> Alcotest.(check int) "summary rows" 2 (Obs.Json.array_length s)
    | None -> Alcotest.fail "summary missing")

(* ----- host-lifecycle chaos through the traffic engine -------------------- *)

let test_chaos_cell () =
  let wl = { quick_wl with P.Mflow.requests_per_flow = 16 } in
  let sched = P.Chaos.gen ~seed:7 ~intensity:4 ~horizon_us:200_000.0 in
  let c = P.Mflow.run_cell ~workload:wl ~chaos:sched ~flows:8 tcp_spec in
  Alcotest.(check int) "every exchange completes despite the faults" 128
    c.P.Mflow.requests;
  Alcotest.(check bool) "drained after recovery" true c.P.Mflow.drained;
  Alcotest.(check (list string)) "no invariant violations" []
    c.P.Mflow.violations;
  Alcotest.(check bool)
    (Printf.sprintf "supervisor reconnected stalled flows (%d)"
       c.P.Mflow.reconnects)
    true
    (c.P.Mflow.reconnects > 0);
  (* a clean cell reports zero reconnects *)
  let clean = P.Mflow.run_cell ~workload:wl ~flows:8 tcp_spec in
  Alcotest.(check int) "no reconnects without chaos" 0 clean.P.Mflow.reconnects

let test_chaos_rejections () =
  let sched = P.Chaos.gen ~seed:1 ~intensity:1 ~horizon_us:50_000.0 in
  let rpc_spec =
    P.Engine.Spec.default ~stack:P.Engine.Rpc
      ~config:(P.Config.make P.Config.All)
  in
  Alcotest.check_raises "chaos needs the TCP stack"
    (Invalid_argument "Mflow: chaos supports the TCP stack only") (fun () ->
      ignore (P.Mflow.run_cell ~workload:quick_wl ~chaos:sched ~flows:2 rpc_spec));
  let open_wl =
    { quick_wl with
      P.Mflow.arrival = P.Mflow.Open_loop { interarrival_us = 500.0 } }
  in
  Alcotest.check_raises "chaos needs the closed loop"
    (Invalid_argument "Mflow: chaos requires a closed-loop workload")
    (fun () ->
      ignore (P.Mflow.run_cell ~workload:open_wl ~chaos:sched ~flows:2 tcp_spec))

(* ----- mflow metrics registered in the unified registry ------------------- *)

let test_metrics_registered () =
  let c = P.Mflow.run_cell ~workload:quick_wl ~flows:4 tcp_spec in
  (match Obs.Metrics.find c.P.Mflow.metrics "mflow.requests" with
  | Some (Obs.Metrics.Counter n) ->
    Alcotest.(check int) "mflow.requests" c.P.Mflow.requests n
  | _ -> Alcotest.fail "mflow.requests missing");
  (match Obs.Metrics.find c.P.Mflow.metrics "mflow.lat_us" with
  | Some (Obs.Metrics.Histogram { count; _ }) ->
    Alcotest.(check int) "latency histogram count" c.P.Mflow.lat.Stats.Hist.n
      count
  | _ -> Alcotest.fail "mflow.lat_us missing");
  match Obs.Metrics.find c.P.Mflow.metrics "mflow.map_hit_rate" with
  | Some (Obs.Metrics.Gauge _) -> ()
  | _ -> Alcotest.fail "mflow.map_hit_rate missing"

let suite =
  ( "mflow",
    [ Alcotest.test_case "percentiles pinned" `Quick test_percentiles_pinned;
      Alcotest.test_case "jobs determinism" `Quick test_jobs_determinism;
      Alcotest.test_case "churn drains" `Quick test_churn_drains;
      Alcotest.test_case "hit rate falls with flows" `Quick
        test_hit_rate_falls_with_flows;
      Alcotest.test_case "rpc cell" `Quick test_rpc_cell;
      Alcotest.test_case "rpc collapse is reported" `Quick
        test_rpc_collapse_is_reported;
      Alcotest.test_case "open loop" `Quick test_open_loop;
      Alcotest.test_case "chaos cell" `Quick test_chaos_cell;
      Alcotest.test_case "chaos rejections" `Quick test_chaos_rejections;
      Alcotest.test_case "json well-formed" `Quick test_json_well_formed;
      Alcotest.test_case "metrics registered" `Quick test_metrics_registered
    ] )

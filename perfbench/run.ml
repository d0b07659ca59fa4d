(* One benchmark run of one workload: spawn the passes (each a fresh,
   simulation-cache-free process), keep each input's fastest time, check
   every output, and report the end-to-end metrics. *)

open Common

(* Every metric of BENCHMARK.json's end_to_end list, with its unit. *)
let e2e_units =
  [ ("setup_s", "s");
    ("work_per_s", "1/s");
    ("call_ms_p50", "ms");
    ("call_ms_p90", "ms");
    ("alloc_kw_per_call", "kw");
    ("heap_peak_mb", "MB") ]

(* Host speed on a shared VM drifts on a scale of seconds, so each input
   is sampled by many short passes spread over the run rather than a few
   long ones; its fastest sample is the one least disturbed. *)
let passes = 6

type pass_result = {
  setup_s : float;
  heap_peak_mb : float;
  records : Pass.record array;
  stamp : Json.v;
}

let read_pass path =
  let v = parse_file path in
  Sys.remove path;
  { setup_s = get_num "setup_s" v;
    heap_peak_mb = get_num "heap_peak_mb" v;
    records = Array.of_list (List.map Pass.record_of_json (get_list "inputs" v));
    stamp = Option.value ~default:Json.Null (Json.member "stamp" v) }

(* Children never touch the cross-process simulation cache: every pass is
   a cold run and nothing is written outside the working tree. *)
let child_env () =
  Array.of_list
    ("PROTOLAT_SIMCACHE=0"
    :: List.filter
         (fun kv -> not (String.starts_with ~prefix:"PROTOLAT_SIMCACHE=" kv))
         (Array.to_list (Unix.environment ())))

let spawn args =
  let exe = Sys.executable_name in
  let spawned_at = now () in
  let argv =
    Array.of_list (exe :: args @ [ "--spawned-at"; Printf.sprintf "%.9f" spawned_at ])
  in
  let pid =
    Unix.create_process_env exe argv (child_env ()) Unix.stdin Unix.stderr
      Unix.stderr
  in
  let rec wait () =
    try snd (Unix.waitpid [] pid)
    with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  match wait () with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> failwith (Printf.sprintf "pass process exited with %d" c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    failwith (Printf.sprintf "pass process killed by signal %d" s)

(* each input's fastest time over the passes, in ms *)
let input_mins (ps : pass_result list) =
  List.init
    (Array.length (List.hd ps).records)
    (fun i -> List.fold_left (fun m p -> Float.min m p.records.(i).Pass.ms) infinity ps)

(* End-to-end metrics of a set of passes over the same inputs. *)
let metrics_of (ps : pass_result list) =
  let first = List.hd ps in
  let n = Array.length first.records in
  let mins = input_mins ps in
  let work = Array.fold_left (fun a r -> a + r.Pass.work) 0 first.records in
  let alloc p =
    sum (Array.to_list (Array.map (fun r -> r.Pass.alloc_w) p.records))
    /. float_of_int n /. 1000.0
  in
  [ ("setup_s", median (List.map (fun p -> p.setup_s) ps));
    ("work_per_s", float_of_int work /. (sum mins /. 1000.0));
    ("call_ms_p50", percentile 50.0 mins);
    ("call_ms_p90", percentile 90.0 mins);
    ("alloc_kw_per_call", median (List.map alloc ps));
    ("heap_peak_mb", List.fold_left (fun m p -> Float.max m p.heap_peak_mb) 0.0 ps) ]

(* An input fails when any pass's checks failed or raised, or when the
   passes disagree on its output. *)
let input_failures (ps : pass_result list) i =
  let rs = List.map (fun p -> p.records.(i)) ps in
  let fs = List.sort_uniq compare (List.concat_map (fun r -> r.Pass.failures) rs) in
  match List.sort_uniq compare (List.map (fun r -> r.Pass.digest) rs) with
  | [ _ ] -> fs
  | _ -> "output differs across passes" :: fs

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (k, v, u) -> (k, Json.Obj [ ("value", num v); ("unit", str u) ]))
       ms)

let with_units ms = List.map (fun (k, v) -> (k, v, List.assoc k e2e_units)) ms

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let main ?(passes = passes) ?(keep = true) w ~seed ~n ~dir =
  mkdir_p dir;
  let id =
    Printf.sprintf "%s-s%d-%.0f-%d" (Workload.name w) seed (Unix.time ())
      (Unix.getpid ())
  in
  let common =
    [ "pass"; "--workload"; Workload.name w; "--seed"; string_of_int seed;
      "--inputs"; string_of_int n ]
  in
  let run_pass p =
    let file = Filename.concat dir (Printf.sprintf "%s.pass%d.json" id p) in
    spawn (common @ [ "--pass"; string_of_int p; "--out"; file ]);
    read_pass file
  in
  let ps = List.init passes (fun k -> run_pass (k + 1)) in
  let metrics = metrics_of ps in
  let failures = List.init n (input_failures ps) in
  let failed = List.length (List.filter (( <> ) []) failures) in
  let digest =
    Workload.workload_digest
      (Array.map (fun r -> r.Pass.digest) (List.hd ps).records)
  in
  let pin = Workload.pinned_digest w ~seed ~n in
  let pin_ok = match pin with Some d -> d = digest | None -> true in
  let outcome =
    { correct = failed = 0 && pin_ok; attempted = n; failed;
      metrics = with_units metrics }
  in
  Printf.printf "%s: seed %d, %d inputs x %d pass%s, work = %s\n"
    (Workload.name w) seed n passes
    (if passes = 1 then "" else "es")
    (Workload.work_unit w);
  List.iter (fun (k, v, u) -> Printf.printf "  %-18s %14.4f %s\n" k v u) outcome.metrics;
  Printf.printf "  digest %s (%s)\n  failed %d of %d inputs\n" digest
    (match pin with
    | None -> "no pin for this seed and input count"
    | Some d when d = digest -> "matches the pin"
    | Some d -> "PIN MISMATCH: expected " ^ d)
    failed n;
  List.iteri
    (fun i fs ->
      if fs <> [] then Printf.printf "  input %d: %s\n" i (String.concat "; " fs))
    failures;

  if keep then
    write_file
      (Filename.concat dir (id ^ ".json"))
      (to_string
         (Json.Obj
            [ ("kind", str "perfbench-run");
              ("workload", str (Workload.name w));
              ("seed", int seed);
              ("inputs", int n);
              ("passes", int passes);
              ("digest", str digest);
              ("correct", Json.Bool outcome.correct);
              ("failed", int failed);
              ("metrics", metrics_json outcome.metrics);
              ( "pass_metrics",
                Json.Arr
                  (List.map
                     (fun p -> metrics_json (with_units (metrics_of [ p ])))
                     ps) );
              ("stamps", Json.Arr (List.map (fun p -> p.stamp) ps));
              ("min_ms", Json.Arr (List.map num (input_mins ps))) ]));
  outcome

let result_line o =
  to_string
    (Json.Obj
       [ ("correct", Json.Bool o.correct);
         ("attempted", int o.attempted);
         ("failed", int o.failed);
         ("metrics", metrics_json o.metrics) ])

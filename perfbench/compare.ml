(* compare A/ B/: is B worse than A, workload by workload and metric by
   metric, under the bounds of BENCHMARK.json?

   Each side is a directory of run results (what a run writes to its
   --out directory).  A side's samples of a metric are its runs' values
   when it holds at least three runs of the workload, otherwise the
   single-pass values of its passes.  Verdicts follow the benchmark's
   rule: "unresolved" when either side's spread (interquartile range over
   median) exceeds the bound, unless every B sample beats every A sample;
   else "regressed" when B's median is worse than A's by more than the
   bound; else "ok".  A rise in failed inputs is always a regression.
   Exit status 1 when anything regressed. *)

open Common

type run = {
  workload : string;
  failed : int;
  attempted : int;
  metrics : (string * float) list;
  pass_metrics : (string * float) list list;
}

let values obj = List.map (fun (k, v) -> (k, get_num "value" v)) obj

let load dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         let path = Filename.concat dir f in
         if not (Filename.check_suffix f ".json") then None
         else
           match Json.parse (read_file path) with
           | Ok v when Json.member "kind" v = Some (Json.Str "perfbench-run") ->
             Some
               { workload = get_str "workload" v;
                 failed = int_of_float (get_num "failed" v);
                 attempted = int_of_float (get_num "inputs" v);
                 metrics = values (get_obj "metrics" v);
                 pass_metrics =
                   List.map
                     (function Json.Obj o -> values o | _ -> [])
                     (get_list "pass_metrics" v) }
           | Ok _ | Error _ -> None)

(* (name, better, bound) of every end-to-end metric *)
let bounds () =
  let v = parse_file "BENCHMARK.json" in
  List.map
    (fun m -> (get_str "name" m, get_str "better" m, get_num "bound" m))
    (get_list "end_to_end" v)

let samples runs name =
  let runs = List.filter (fun r -> List.mem_assoc name r.metrics) runs in
  if List.length runs >= 3 then List.map (fun r -> List.assoc name r.metrics) runs
  else
    List.concat_map
      (fun r -> List.filter_map (List.assoc_opt name) r.pass_metrics)
      runs

let spread xs =
  let q1, m, q3 = quartiles xs in
  (q3 -. q1) /. m

let main a b =
  let bounds = bounds () in
  let ra = load a and rb = load b in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (ra @ rb))
  in
  let regressed = ref false in
  Printf.printf "%-14s %-18s %28s %28s %8s %6s  %s\n" "workload" "metric"
    "A median [q1 q3]" "B median [q1 q3]" "change" "bound" "verdict";
  List.iter
    (fun w ->
      let wa = List.filter (fun r -> r.workload = w) ra in
      let wb = List.filter (fun r -> r.workload = w) rb in
      if wa = [] || wb = [] then
        Printf.printf "%-14s (present on one side only)\n" w
      else begin
        List.iter
          (fun (name, better, bound) ->
            let xa = samples wa name and xb = samples wb name in
            if xa <> [] && xb <> [] then begin
              let qa1, ma, qa3 = quartiles xa and qb1, mb, qb3 = quartiles xb in
              let lower = better = "lower" in
              let change = (mb -. ma) /. ma in
              let worse = if lower then change else -.change in
              let b_beats_all =
                if lower then List.fold_left Float.max neg_infinity xb
                              < List.fold_left Float.min infinity xa
                else List.fold_left Float.min infinity xb
                     > List.fold_left Float.max neg_infinity xa
              in
              let verdict =
                if spread xa > bound || spread xb > bound then
                  if b_beats_all then "ok" else "unresolved"
                else if worse > bound then "regressed"
                else "ok"
              in
              if verdict = "regressed" then regressed := true;
              Printf.printf "%-14s %-18s %10.4g [%7.4g %7.4g] %10.4g [%7.4g %7.4g] %+7.1f%% %5.0f%%  %s\n"
                w name ma qa1 qa3 mb qb1 qb3 (100.0 *. change) (100.0 *. bound)
                verdict
            end)
          bounds;
        let frac rs =
          float_of_int (List.fold_left (fun s r -> s + r.failed) 0 rs)
          /. float_of_int (List.fold_left (fun s r -> s + r.attempted) 0 rs)
        in
        let fa = frac wa and fb = frac wb in
        let verdict = if fb > fa then "regressed" else "ok" in
        if fb > fa then regressed := true;
        Printf.printf "%-14s %-18s %28.4g %28.4g %8s %6s  %s\n" w "fail_frac" fa fb
          "" "any" verdict
      end)
    workloads;
  if !regressed then 1 else 0

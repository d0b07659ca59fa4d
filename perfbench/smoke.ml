(* Every workload at 2 inputs x 1 pass with every oracle, including the
   pinned smoke digests: a quick check that the benchmark still runs and
   the simulator still computes what it did. *)

let main () =
  let seed = Workload.default_seed and n = 2 in
  let dir = Filename.concat ".perfbench" "smoke" in
  let bad =
    List.filter
      (fun w ->
        let o = Run.main ~passes:1 ~keep:false w ~seed ~n ~dir in
        (not o.Run.correct) || Workload.pinned_digest w ~seed ~n = None)
      Workload.all
  in
  List.iter
    (fun w -> Printf.printf "smoke: %s FAILED\n" (Workload.name w))
    bad;
  if bad = [] then (print_endline "smoke: ok"; 0) else 1

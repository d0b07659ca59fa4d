(* protolat_bench: the repo's end-to-end benchmark.

   Usage (from the repository root):
     protolat_bench --workload W --seed N --seconds S --trace 0|1 [--out DIR]
     protolat_bench compare A/ B/
     protolat_bench smoke

   The first form runs one workload (see README.md), or with
   [--workload all] each in turn: with [--trace 0] fresh pass processes
   and the end-to-end metrics, with [--trace 1] one traced in-process pass
   and the per-layer ledger.  The last line a workload prints on standard
   output is its JSON result object. *)

let usage () =
  prerr_endline
    "usage: protolat_bench --workload W|all --seed N --seconds S --trace 0|1 [--out DIR]\n\
    \       protolat_bench compare A/ B/\n\
    \       protolat_bench smoke\n\
     workloads: paper_sweep layout_search fabric_incast mflow_churn";
  exit 2

(* [--key value] pairs and bare [--flag]s after the subcommand *)
let rec parse_flags acc = function
  | [] -> acc
  | k :: v :: rest
    when String.starts_with ~prefix:"--" k
         && not (String.starts_with ~prefix:"--" v) ->
    parse_flags ((k, v) :: acc) rest
  | k :: rest when String.starts_with ~prefix:"--" k ->
    parse_flags ((k, "") :: acc) rest
  | a :: _ ->
    Printf.eprintf "protolat_bench: unexpected argument %s\n" a;
    usage ()

let flag flags k = List.assoc_opt k flags

let int_flag flags k ~default =
  match flag flags k with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> n
    | None ->
      Printf.eprintf "protolat_bench: %s expects an integer, got %S\n" k v;
      usage ())

let workload_flag flags =
  match Option.bind (flag flags "--workload") Workload.of_name with
  | Some w -> w
  | None -> usage ()

let default_out = Filename.concat ".perfbench" "runs"

let () =
  (* never read or write the per-user simulation cache *)
  Protolat_machine.Simcache.set_enabled false;
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: [ a; b ] -> exit (Compare.main a b)
  | "smoke" :: [] -> exit (Smoke.main ())
  | "pass" :: rest ->
    let flags = parse_flags [] rest in
    let w = workload_flag flags in
    Pass.main w
      ~seed:(int_flag flags "--seed" ~default:Workload.default_seed)
      ~n:(int_flag flags "--inputs" ~default:2)
      ~pass:(int_flag flags "--pass" ~default:1)
      ~spawned_at:
        (match Option.bind (flag flags "--spawned-at") float_of_string_opt with
        | Some t -> t
        | None -> usage ())
      ~out:(match flag flags "--out" with Some f -> f | None -> usage ())
  | args when flag (parse_flags [] args) "--workload" = Some "all" ->
    (* each workload in a process of its own, as it runs alone *)
    let rest = List.remove_assoc "--workload" (parse_flags [] args) in
    List.iter
      (fun w ->
        let argv =
          Sys.executable_name :: "--workload" :: Workload.name w
          :: List.concat_map (fun (k, v) -> if v = "" then [ k ] else [ k; v ]) rest
        in
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin
            Unix.stdout Unix.stderr
        in
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED 0 -> ()
        | _ -> exit 1)
      Workload.all
  | args ->
    let flags = parse_flags [] args in
    let w = workload_flag flags in
    let seed = int_flag flags "--seed" ~default:Workload.default_seed in
    let seconds =
      max 1 (int_flag flags "--seconds" ~default:Workload.nominal_seconds)
    in
    let n = Workload.inputs_for ~seconds w in
    let dir = Option.value (flag flags "--out") ~default:default_out in
    let outcome =
      match int_flag flags "--trace" ~default:0 with
      | 0 -> Run.main w ~seed ~n ~dir
      | 1 -> Ledger.main w ~seed ~n ~dir
      | _ -> usage ()
    in
    print_endline (Run.result_line outcome)

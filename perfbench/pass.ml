(* One pass: a fresh process sets up, then times every input of the run
   once.  The orchestrator spawns several and keeps each input's fastest
   time. *)

open Common

type record = {
  ms : float;  (** wall time of the call *)
  alloc_w : float;  (** words allocated by the call, every domain *)
  work : int;
  digest : string;
  failures : string list;
}

(* minor + direct-major - promoted = words allocated; joined domains'
   counts are folded in by the runtime *)
let allocated () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* The minor collections around the call make the sampled counters exact
   at both ends and start every input from an empty minor heap; both sit
   outside the timed region, as do the checks.  The input's full check,
   if it has one, is returned to run after every input is timed. *)
let run_input input =
  Gc.minor ();
  let a0 = allocated () in
  let t0 = now () in
  let r = try Ok (Workload.execute input) with e -> Error e in
  let t1 = now () in
  Gc.minor ();
  let alloc_w = allocated () -. a0 in
  let ms = (t1 -. t0) *. 1000.0 in
  let failed msg = ({ ms; alloc_w; work = 0; digest = ""; failures = [ msg ] }, None) in
  match r with
  | Ok res -> (
    try
      ( { ms; alloc_w; work = Workload.work res; digest = Workload.digest res;
          failures = Workload.failures input res },
        Workload.full_check res )
    with e -> failed ("check raised " ^ Printexc.to_string e))
  | Error e -> failed ("raised " ^ Printexc.to_string e)

let protolat_env () =
  Array.to_list (Unix.environment ())
  |> List.filter (fun kv -> String.starts_with ~prefix:"PROTOLAT_" kv)
  |> List.sort compare

(* What produced the numbers: code revision, machine, replay layers. *)
let stamp ~seed ~pass =
  Json.Obj
    [ ("rev", str (git_rev ()));
      ("nproc", int (Domain.recommended_domain_count ()));
      ("ocaml", str Sys.ocaml_version);
      ("fastpath", Json.Bool (Protolat_machine.Blockcache.enabled ()));
      ("dmemo", Json.Bool (Protolat_machine.Blockcache.dmemo_enabled ()));
      ("simcache", Json.Bool (Protolat_machine.Simcache.enabled ()));
      ("env", Json.Arr (List.map str (protolat_env ())));
      ("seed", int seed);
      ("pass", int pass) ]

let record_json r =
  Json.Obj
    [ ("ms", num r.ms); ("alloc_w", num r.alloc_w); ("work", int r.work);
      ("digest", str r.digest);
      ("failures", Json.Arr (List.map str r.failures)) ]

let record_of_json v =
  { ms = get_num "ms" v; alloc_w = get_num "alloc_w" v;
    work = int_of_float (get_num "work" v); digest = get_str "digest" v;
    failures =
      List.filter_map (function Json.Str s -> Some s | _ -> None) (get_list "failures" v) }

(* [spawned_at] is the parent's clock reading just before it started this
   process, so setup_s covers exec, runtime start, input generation and
   the workload's one-off setup. *)
let main w ~seed ~n ~pass ~spawned_at ~out =
  let inputs = Workload.inputs w ~seed ~n in
  Workload.setup w;
  let setup_s = now () -. spawned_at in
  let runs = Array.map run_input inputs in
  let heap_peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let records =
    Array.map
      (function
        | r, Some check when pass = 1 ->
          let fs = try check () with e -> [ "check raised " ^ Printexc.to_string e ] in
          { r with failures = r.failures @ fs }
        | r, _ -> r)
      runs
  in
  write_file out
    (to_string
       (Json.Obj
          [ ("stamp", stamp ~seed ~pass);
            ("setup_s", num setup_s);
            ("heap_peak_mb", num heap_peak_mb);
            ("inputs", Json.Arr (Array.to_list (Array.map record_json records))) ]))

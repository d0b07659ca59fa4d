(* Automated layout search: determinism across job counts, the
   scorer-vs-full-simulation bit-identity contract, named-layout seeding,
   and a pinned quick-config best-score regression. *)

module P = Protolat
module LS = P.Layoutsearch

(* one shared pinned-config run (the @search-quick configuration at a
   slightly smaller budget), reused across the tests below *)
let pinned ~jobs =
  LS.run ~budget:160 ~seeds:1 ~geometries:[ 8 ]
    ~stacks:[ P.Engine.Tcpip; P.Engine.Rpc ] ~jobs ()

let t1 = lazy (pinned ~jobs:1)

let test_jobs_bit_identity () =
  let a = Lazy.force t1 in
  let b = pinned ~jobs:4 in
  Alcotest.(check string)
    "digest at --jobs 1 = digest at --jobs 4" (LS.digest a) (LS.digest b);
  List.iter2
    (fun (ca : LS.cell) (cb : LS.cell) ->
      Alcotest.(check (list string))
        "identical best unit order" ca.LS.best_order cb.LS.best_order;
      Alcotest.(check bool)
        "identical best steady time" true (ca.LS.best_us = cb.LS.best_us))
    a.LS.cells b.LS.cells

let test_check_bit_identity () =
  (* [check] decodes each best genome, rebuilds the image, and re-measures
     through the full simulation path (fresh memory system, canonical
     warmup) — the scorer's fast path must agree bit for bit *)
  match LS.check (Lazy.force t1) with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("check: " ^ m)

let test_named_seeding () =
  let expect =
    [ P.Config.Bipartite; P.Config.Micro; P.Config.Linear;
      P.Config.Link_order ]
  in
  List.iter
    (fun (c : LS.cell) ->
      List.iter
        (fun l ->
          Alcotest.(check bool)
            (P.Config.layout_name l ^ " genome-representable and seeded")
            true
            (List.mem l c.LS.seeded))
        expect;
      (* seeding makes this structural, not lucky *)
      let _, named_us = LS.best_named c in
      Alcotest.(check bool)
        "best found <= best hand-picked named layout" true
        (c.LS.best_us <= named_us))
    (Lazy.force t1).LS.cells

let test_pinned_best_scores () =
  (* the whole pipeline is deterministic, so the quick-config result is a
     constant of the repo; an unintended change to the scorer, the move
     generator, the RNG, or the seeding shows up here as a score shift *)
  List.iter
    (fun ((c : LS.cell), want_best, want_greedy) ->
      Alcotest.(check string)
        (P.Engine.stack_name c.LS.stack ^ " pinned best steady us")
        want_best
        (Printf.sprintf "%.6f" c.LS.best_us);
      Alcotest.(check string)
        (P.Engine.stack_name c.LS.stack ^ " pinned greedy steady us")
        want_greedy
        (Printf.sprintf "%.6f" c.LS.greedy_us))
    (match (Lazy.force t1).LS.cells with
    | [ tcp; rpc ] ->
      [ (tcp, "68.428571", "68.714286"); (rpc, "59.293714", "59.293714") ]
    | _ -> Alcotest.fail "expected exactly two cells")

let test_trajectory_monotone () =
  List.iter
    (fun (c : LS.cell) ->
      let rec go last = function
        | [] -> ()
        | (p : LS.point) :: rest ->
          Alcotest.(check bool) "trajectory strictly improves" true
            (p.LS.us < last);
          Alcotest.(check bool) "trajectory eval within budget" true
            (p.LS.eval >= 1 && p.LS.eval <= c.LS.evals);
          go p.LS.us rest
      in
      go infinity c.LS.trajectory;
      Alcotest.(check bool) "annealing never loses the greedy best" true
        (c.LS.best_us <= c.LS.greedy_us))
    (Lazy.force t1).LS.cells

let test_top_conflicts () =
  (* the typed Attrib query feeding the move generator: ordered by count,
     bounded by k, and cross_only drops self-conflicts *)
  let r =
    P.Engine.run
      (P.Engine.Spec.make ~stack:P.Engine.Tcpip
         ~config:(P.Config.make P.Config.Clo) ())
  in
  let a =
    Protolat_obs.Attrib.profile Protolat_machine.Params.default
      r.P.Engine.client_image r.P.Engine.trace
  in
  let top = Protolat_obs.Attrib.top_conflicts ~k:5 a in
  Alcotest.(check bool) "at most k pairs" true (List.length top <= 5);
  let counts =
    List.map (fun (c : Protolat_obs.Attrib.conflict) -> c.Protolat_obs.Attrib.count) top
  in
  Alcotest.(check bool) "sorted by descending count" true
    (List.sort (fun a b -> compare b a) counts = counts);
  List.iter
    (fun (c : Protolat_obs.Attrib.conflict) ->
      Alcotest.(check bool) "cross_only excludes self-pairs" true
        (c.Protolat_obs.Attrib.victim <> c.Protolat_obs.Attrib.evictor))
    (Protolat_obs.Attrib.top_conflicts ~k:32 ~cross_only:true a)

let suite =
  ( "search",
    [ Alcotest.test_case "jobs bit-identity" `Quick test_jobs_bit_identity;
      Alcotest.test_case "scorer vs full simulation" `Quick
        test_check_bit_identity;
      Alcotest.test_case "named layouts seed the search" `Quick
        test_named_seeding;
      Alcotest.test_case "pinned quick-config scores" `Quick
        test_pinned_best_scores;
      Alcotest.test_case "trajectory and phases" `Quick
        test_trajectory_monotone;
      Alcotest.test_case "attrib top conflicts" `Quick test_top_conflicts ] )

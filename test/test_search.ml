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

let test_full_default_digest () =
  (* the default configuration (8 cells x 600 evaluations, 2 restarts):
     the digest folds in every cell's named scores, best genome and
     trajectory, so it pins the scorer on every geometry *)
  Alcotest.(check string)
    "full default search digest" "1fabb7d4fdaa540d74c09d34a799f28f"
    (LS.digest (LS.run ()))

let test_base_trace_rounds () =
  (* the search reads only the client image and the first measured
     roundtrip's trace, so its base run may be a one-round run *)
  List.iter
    (fun stack ->
      let trace rounds =
        (P.Engine.run
           (P.Engine.Spec.make ~rounds ~stack
              ~config:(P.Config.make P.Config.Clo)
              ~layout:(P.Config.layout_of P.Config.Clo) ()))
          .P.Engine.trace
      in
      let a = trace 1 and b = trace 24 in
      let module T = Protolat_machine.Trace in
      let name = P.Engine.stack_name stack in
      Alcotest.(check int) (name ^ " trace length") (T.length b) (T.length a);
      let column f = List.init (T.length a) f in
      let same what f g =
        Alcotest.(check bool) (name ^ " " ^ what ^ " column") true
          (column f = column g)
      in
      same "pc" (T.pc_at a) (T.pc_at b);
      same "class" (T.cls_at a) (T.cls_at b);
      same "kind" (T.kind_at a) (T.kind_at b);
      same "address" (T.addr_at a) (T.addr_at b))
    [ P.Engine.Tcpip; P.Engine.Rpc ]

(* The scorer against the full path, on genomes the search would rarely
   reach: every score must equal [Perf.steady ~warmup:1] of the decoded
   image's retargeted trace bit for bit, on both stacks at every
   geometry. *)
let test_scorer_matches_full_path () =
  let module M = Protolat_machine in
  let module L = Protolat_layout in
  let config = P.Config.make P.Config.Clo in
  let bsets = M.Params.default.M.Params.bcache_bytes / 32 in
  let sets column t =
    List.sort_uniq compare
      (List.filter_map (fun i -> Option.map (fun a -> a / 32 mod bsets) (column t i))
         (List.init (M.Trace.length t) Fun.id))
  in
  List.iteri
    (fun si stack ->
      let name = P.Engine.stack_name stack in
      let base =
        P.Engine.run
          (P.Engine.Spec.make ~rounds:1 ~stack ~config
             ~layout:(P.Config.layout_of P.Config.Clo) ())
      in
      let units = Array.of_list (fst (P.Engine.client_units config stack)) in
      let nu = Array.length units in
      let base_cold = Array.map L.Image.unit_separate_cold units in
      let toggleable =
        Array.map
          (fun u ->
            L.Image.unit_outlined u
            && L.Image.cold_size_bytes (L.Image.set_separate_cold u true) > 0)
          units
      in
      let decode (g : LS.genome) =
        let us =
          Array.mapi
            (fun i u ->
              if g.LS.cold.(i) <> base_cold.(i) then
                L.Image.set_separate_cold u g.LS.cold.(i)
              else u)
            units
        in
        let img =
          L.Image.build
            (L.Strategy.at_offsets ~base:0x10000 ~icache_bytes:8192
               ~block_bytes:32
               (Array.to_list
                  (Array.mapi (fun k u -> (us.(u), g.LS.offs.(k))) g.LS.perm)))
        in
        M.Trace.map_pcs
          (L.Image.pc_map base.P.Engine.client_image img)
          base.P.Engine.trace
      in
      let rng = Random.State.make [| 26; si |] in
      let random_genome () =
        let perm = Array.init nu Fun.id in
        for i = nu - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let x = perm.(i) in
          perm.(i) <- perm.(j);
          perm.(j) <- x
        done;
        { LS.perm;
          offs = Array.init nu (fun _ -> Random.State.int rng 257 - 1);
          cold =
            Array.mapi
              (fun i c -> if toggleable.(i) then Random.State.bool rng else c)
              base_cold }
      in
      (* 126 whole 8 KB periods put the code 1008 KB past its base, on
         the b-cache sets of the data's densest lines, so only the full
         path can score it *)
      let far =
        { LS.perm = Array.init nu Fun.id;
          offs = Array.init nu (fun k -> if k = 0 then 126 * 256 else -1);
          cold = Array.copy base_cold }
      in
      let genomes = far :: List.init 30 (fun _ -> random_genome ()) in
      let traces = List.map decode genomes in
      let data =
        sets
          (fun t i ->
            if M.Trace.kind_at t i = M.Trace.kind_none then None
            else Some (M.Trace.addr_at t i))
          base.P.Engine.trace
      in
      Alcotest.(check bool)
        (name ^ " far genome's code on the data's b-cache sets") true
        (List.exists (fun s -> List.mem s data)
           (sets (fun t i -> Some (M.Trace.pc_at t i)) (List.hd traces)));
      List.iter
        (fun kb ->
          let p = { M.Params.default with M.Params.icache_bytes = kb * 1024 } in
          List.iteri
            (fun k (t, us) ->
              let want = (M.Perf.steady ~warmup:1 p t).M.Perf.time_us in
              if us <> want then
                Alcotest.failf "%s %d KB genome %d: scorer %h us, full path %h us"
                  name kb k us want)
            (List.combine traces (LS.score stack kb genomes)))
        LS.geometries)
    [ P.Engine.Tcpip; P.Engine.Rpc ]

(* Every named layout's score (the seeded ones through their seed
   genomes, pessimal through the full path) against a full simulation of
   the engine's own image of that layout, in every cell; the smallest
   budget pays for exactly these five. *)
let test_named_scores_match_full_path () =
  let module M = Protolat_machine in
  let config = P.Config.make P.Config.Clo in
  let t = LS.run ~budget:5 () in
  List.iter
    (fun stack ->
      let base =
        P.Engine.run
          (P.Engine.Spec.make ~rounds:1 ~stack ~config
             ~layout:(P.Config.layout_of P.Config.Clo) ())
      in
      List.iter
        (fun (c : LS.cell) ->
          if c.LS.stack = stack then begin
            Alcotest.(check int) "five evaluations" 5 c.LS.evals;
            let p =
              { M.Params.default with M.Params.icache_bytes = c.LS.icache_kb * 1024 }
            in
            List.iter
              (fun (layout, us) ->
                let img = P.Engine.layout_for config stack ~layout () in
                let t' =
                  M.Trace.map_pcs
                    (Protolat_layout.Image.pc_map base.P.Engine.client_image img)
                    base.P.Engine.trace
                in
                let want = (M.Perf.steady ~warmup:1 p t').M.Perf.time_us in
                if us <> want then
                  Alcotest.failf "%s %d KB %s: scorer %h us, full path %h us"
                    (P.Engine.stack_name stack) c.LS.icache_kb
                    (P.Config.layout_name layout) us want)
              c.LS.named
          end)
        t.LS.cells)
    [ P.Engine.Tcpip; P.Engine.Rpc ]

let clo_base stack =
  let config = P.Config.make P.Config.Clo in
  P.Engine.run
    (P.Engine.Spec.make ~rounds:1 ~stack ~config
       ~layout:(P.Config.layout_of P.Config.Clo) ())

(* The search's guidance pairs, counted from the tag array's second pass,
   against the attribution replay they stand for: on every stack x
   geometry cell, the 16 hottest (victim, evictor) pairs of
   [Attrib.profile] over the base image and trace. *)
let test_guidance_matches_attrib () =
  let module A = Protolat_obs.Attrib in
  let module M = Protolat_machine in
  let show (c : A.conflict) =
    Printf.sprintf "%s<-%s:%d" c.A.victim c.A.evictor c.A.count
  in
  List.iter
    (fun stack ->
      let base = clo_base stack in
      List.iter
        (fun kb ->
          let p = { M.Params.default with M.Params.icache_bytes = kb * 1024 } in
          let want =
            A.top_conflicts ~k:16
              (A.profile p base.P.Engine.client_image base.P.Engine.trace)
          in
          let name = Printf.sprintf "%s %d KB" (P.Engine.stack_name stack) kb in
          (* from 16 KB up a stack's code may fit, leaving no pairs *)
          if kb = 4 then
            Alcotest.(check bool) (name ^ " has conflicts") true (want <> []);
          Alcotest.(check (list string)) (name ^ " guidance pairs")
            (List.map show want)
            (List.map show (LS.guidance stack kb)))
        LS.geometries)
    [ P.Engine.Tcpip; P.Engine.Rpc ]

(* The unit table inverts the base image's placement.  Each event's
   (unit, offset), placed at the dense canonical bases with every unit's
   cold blocks inside, must be where [Image.pc_map] moves the event's pc
   in [Image.build] of that placement. *)
let test_unit_table_matches_pc_map () =
  let module L = Protolat_layout in
  let module T = Protolat_machine.Trace in
  let config = P.Config.make P.Config.Clo in
  List.iter
    (fun stack ->
      let base = clo_base stack in
      let inside =
        List.map
          (fun u ->
            if L.Image.unit_outlined u then L.Image.set_separate_cold u false else u)
          (fst (P.Engine.client_units config stack))
      in
      let placement =
        L.Strategy.at_offsets ~base:0x10000 ~icache_bytes:8192 ~block_bytes:32
          (List.map (fun u -> (u, -1)) inside)
      in
      let bases = Array.of_list (List.map snd placement) in
      let map = L.Image.pc_map base.P.Engine.client_image (L.Image.build placement) in
      let trace = base.P.Engine.trace in
      let table = LS.events stack in
      let name = P.Engine.stack_name stack in
      Alcotest.(check int) (name ^ " one entry per event") (T.length trace)
        (Array.length table);
      Array.iteri
        (fun i (u, off) ->
          let want = map (T.pc_at trace i) in
          if bases.(u) + off <> want then
            Alcotest.failf "%s event %d: unit %d offset %d gives 0x%x, pc_map 0x%x"
              name i u off (bases.(u) + off) want)
        table)
    [ P.Engine.Tcpip; P.Engine.Rpc ]

let rejects what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Invalid_argument _ -> ()

let test_small_budget_rejected () =
  List.iter
    (fun budget ->
      rejects (Printf.sprintf "budget %d" budget) (fun () ->
          LS.run ~budget ~geometries:[ 8 ] ()))
    [ 0; 1; 2; 3; 4 ]

let test_bad_geometry_rejected () =
  List.iter
    (fun kb ->
      rejects (Printf.sprintf "geometry %d KB" kb) (fun () ->
          LS.run ~budget:5 ~geometries:[ 8; kb ] ()))
    [ 3; 0; -8 ];
  rejects "score at 12 KB" (fun () -> LS.score P.Engine.Tcpip 12 [])

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
      Alcotest.test_case "full default digest pinned" `Quick
        test_full_default_digest;
      Alcotest.test_case "base trace independent of rounds" `Quick
        test_base_trace_rounds;
      Alcotest.test_case "scorer matches the full path" `Quick
        test_scorer_matches_full_path;
      Alcotest.test_case "named scores match the full path" `Quick
        test_named_scores_match_full_path;
      Alcotest.test_case "budget below the named layouts rejected" `Quick
        test_small_budget_rejected;
      Alcotest.test_case "bad geometry rejected" `Quick
        test_bad_geometry_rejected;
      Alcotest.test_case "attrib top conflicts" `Quick test_top_conflicts;
      Alcotest.test_case "guidance matches the attribution replay" `Quick
        test_guidance_matches_attrib;
      Alcotest.test_case "unit table matches pc_map" `Quick
        test_unit_table_matches_pc_map ] )

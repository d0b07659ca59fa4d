module Vec = Protolat_util.Vec
module Heap = Protolat_util.Heap
module Rng = Protolat_util.Rng
module Stats = Protolat_util.Stats
module Table = Protolat_util.Table

let test_vec_basics () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 42);
  Alcotest.check_raises "oob" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 100))

let test_vec_append_clear () =
  let a = Vec.of_list [ 1; 2; 3 ] and b = Vec.of_list [ 4; 5 ] in
  Vec.append a b;
  Alcotest.(check (list int)) "append" [ 1; 2; 3; 4; 5 ] (Vec.to_list a);
  Vec.clear a;
  Alcotest.(check int) "clear" 0 (Vec.length a)

let prop_vec_roundtrip =
  QCheck.Test.make ~name:"vec of_list/to_list roundtrip" ~count:100
    QCheck.(list int)
    (fun l -> Vec.to_list (Vec.of_list l) = l)

let prop_vec_to_array =
  QCheck.Test.make ~name:"vec to_array matches list" ~count:100
    QCheck.(list int)
    (fun l -> Array.to_list (Vec.to_array (Vec.of_list l)) = l)

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun (p, x) -> Heap.push h p x)
    [ (3.0, "c"); (1.0, "a"); (2.0, "b"); (1.0, "a2") ];
  let drain () =
    let rec go acc =
      match Heap.pop h with
      | None -> List.rev acc
      | Some (_, x) -> go (x :: acc)
    in
    go []
  in
  (* equal priorities come out in insertion order *)
  Alcotest.(check (list string)) "order" [ "a"; "a2"; "b"; "c" ] (drain ())

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in priority order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun ps ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h p p) ps;
      let rec drain acc =
        match Heap.pop h with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      let out = drain [] in
      out = List.sort compare ps)

(* Differential test against a sorted-list model.  Priorities come from a
   four-value set so ties are common; values are insertion numbers, so the
   model's order is (priority, insertion).  Ops: 0-5 push priority [k],
   6-7 [pop], 8 [pop_top], 9 [clear]; every step also checks [top_prio],
   [top] and [min_priority] against the model. *)
let prop_heap_vs_model =
  QCheck.Test.make ~name:"heap matches a sorted-list model" ~count:300
    QCheck.(list (pair (int_range 0 9) (int_range 0 3)))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] in
      let next = ref 0 in
      let insert p v =
        let rec go = function
          | [] -> [ (p, v) ]
          | ((q, _) as x) :: rest when q <= p -> x :: go rest
          | l -> (p, v) :: l
        in
        model := go !model
      in
      let agree () =
        Heap.size h = List.length !model
        && Heap.is_empty h = (!model = [])
        &&
        match !model with
        | [] ->
          Heap.min_priority h = None
          && Heap.top_prio h = infinity
          && (try ignore (Heap.pop_top h); false
              with Invalid_argument _ -> true)
          && Heap.pop h = None
        | (p, v) :: _ ->
          Heap.min_priority h = Some p && Heap.top_prio h = p && Heap.top h = v
      in
      List.for_all
        (fun (op, k) ->
          (match (op, !model) with
          | (0 | 1 | 2 | 3 | 4 | 5), _ ->
            let p = float_of_int k in
            Heap.push h p !next;
            insert p !next;
            incr next
          | (6 | 7), [] | 8, [] -> ()
          | (6 | 7), (p, v) :: rest ->
            if Heap.pop h <> Some (p, v) then failwith "pop";
            model := rest
          | 8, (_, v) :: rest ->
            if Heap.pop_top h <> v then failwith "pop_top";
            model := rest
          | _ ->
            Heap.clear h;
            model := []);
          agree ())
        ops
      && (* drain what is left: (priority, insertion) order *)
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = !model)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    if x < 0 || x >= 17 then Alcotest.fail "out of bounds"
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int") (fun () ->
      ignore (Rng.int r 0))

let test_rng_shuffle_permutes () =
  let r = Rng.create 3 in
  let a = Array.init 50 Fun.id in
  let b = Array.copy a in
  Rng.shuffle r b;
  Alcotest.(check bool) "permutation" true
    (List.sort compare (Array.to_list b) = Array.to_list a)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "stddev" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "stddev single" 0.0 (Stats.stddev [ 5.0 ]);
  let lo, hi = Stats.min_max [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check (float 1e-9)) "min" 1.0 lo;
  Alcotest.(check (float 1e-9)) "max" 3.0 hi;
  Alcotest.(check (float 1e-9)) "slowdown" 50.0
    (Stats.percent_slowdown 150.0 100.0)

(* ----- streaming histogram -------------------------------------------------- *)

let test_hist_basics () =
  let h = Stats.Hist.create () in
  Alcotest.(check int) "empty count" 0 (Stats.Hist.count h);
  let d = Stats.Hist.digest h in
  Alcotest.(check (float 0.0)) "empty digest p50" 0.0 d.Stats.Hist.p50;
  Alcotest.(check int) "empty digest n" 0 d.Stats.Hist.n;
  List.iter (Stats.Hist.add h) [ 100.0; 200.0; 300.0; 400.0 ];
  Alcotest.(check int) "count" 4 (Stats.Hist.count h);
  Alcotest.(check (float 1e-9)) "total" 1000.0 (Stats.Hist.total h);
  Alcotest.(check (float 1e-9)) "min" 100.0 (Stats.Hist.min_value h);
  Alcotest.(check (float 1e-9)) "max" 400.0 (Stats.Hist.max_value h);
  (* quantiles land within one log-bucket of the nearest-rank answer, and
     the extremes are exact (clamped to the observed min/max) *)
  let tol = Stats.Hist.rel_error h in
  let near name expect got =
    Alcotest.(check bool)
      (Printf.sprintf "%s: |%g - %g| within %.1f%%" name got expect
         (100.0 *. tol))
      true
      (Float.abs (got -. expect) <= (tol +. 1e-9) *. expect)
  in
  near "p50" 200.0 (Stats.Hist.quantile h 50.0);
  Alcotest.(check (float 0.0)) "p100 exact" 400.0
    (Stats.Hist.quantile h 100.0);
  Alcotest.check_raises "NaN rejected" (Invalid_argument "Hist.add: NaN")
    (fun () -> Stats.Hist.add h Float.nan)

let test_hist_merge () =
  let a = Stats.Hist.create () and b = Stats.Hist.create () in
  let rng = Rng.create 11 in
  let xs = List.init 500 (fun _ -> 10.0 +. Rng.float rng 10_000.0) in
  List.iteri
    (fun i v -> Stats.Hist.add (if i mod 2 = 0 then a else b) v)
    xs;
  let m = Stats.Hist.merge a b in
  Alcotest.(check int) "merged count" 500 (Stats.Hist.count m);
  let all = Stats.Hist.create () in
  List.iter (Stats.Hist.add all) xs;
  (* merge is exact on bucket counts, so every quantile agrees with the
     single-histogram answer bit-for-bit *)
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%g merge = single" p)
        (Stats.Hist.quantile all p) (Stats.Hist.quantile m p))
    [ 50.0; 90.0; 99.0; 99.9; 100.0 ];
  Alcotest.check_raises "geometry mismatch rejected"
    (Invalid_argument "Hist.merge: geometry mismatch") (fun () ->
      ignore (Stats.Hist.merge a (Stats.Hist.create ~per_decade:8 ())))

(* quantiles vs the exact nearest-rank percentile on random samples: the
   bucketed answer must stay within one bucket's relative error *)
let prop_hist_vs_percentile =
  QCheck.Test.make ~name:"Hist.quantile tracks Stats.percentile" ~count:100
    QCheck.(
      pair small_nat (list_of_size Gen.(1 -- 200) (float_bound_inclusive 1e6)))
    (fun (seed, raw) ->
      let xs = List.map (fun v -> 0.5 +. Float.abs v) raw in
      let h = Stats.Hist.create () in
      List.iter (Stats.Hist.add h) xs;
      let rng = Rng.create seed in
      let ps = [ 50.0; 90.0; 99.0; 99.9; float_of_int (Rng.int rng 101) ] in
      let tol = Stats.Hist.rel_error h in
      List.for_all
        (fun p ->
          let exact = Stats.percentile p xs in
          let approx = Stats.Hist.quantile h p in
          Float.abs (approx -. exact) <= (tol +. 1e-9) *. exact +. 1e-9)
        ps)

let test_table_render () =
  let t = Table.create ~title:"T" ~headers:[ "a"; "b" ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_separator t;
  Table.add_row t [ "yy"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0);
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Table.add_row: width mismatch") (fun () ->
      Table.add_row t [ "only-one" ])

let test_table_cells () =
  Alcotest.(check string) "pm" "1.5±0.25" (Table.cell_pm 1.5 0.25);
  Alcotest.(check string) "pct" "+12.9" (Table.cell_pct 12.94);
  Alcotest.(check string) "f" "3.14" (Table.cell_f ~digits:2 3.14159)

(* ----- Dpool ---------------------------------------------------------------- *)

module Dpool = Protolat_util.Dpool

let test_dpool_order () =
  let tasks = List.init 37 (fun i -> fun () -> i * i) in
  let expect = List.init 37 (fun i -> i * i) in
  Alcotest.(check (list int)) "jobs:1" expect (Dpool.run ~jobs:1 tasks);
  Alcotest.(check (list int)) "jobs:4" expect (Dpool.run ~jobs:4 tasks);
  Alcotest.(check (list int)) "jobs > tasks" [ 7 ]
    (Dpool.run ~jobs:8 [ (fun () -> 7) ])

let test_dpool_exn () =
  Alcotest.check_raises "worker exception propagates" Exit (fun () ->
      ignore
        (Dpool.run ~jobs:3
           (List.init 8 (fun i ->
                fun () -> if i = 5 then raise Exit else i))))

let suite =
  ( "util",
    [ Alcotest.test_case "vec basics" `Quick test_vec_basics;
      Alcotest.test_case "vec append/clear" `Quick test_vec_append_clear;
      QCheck_alcotest.to_alcotest prop_vec_roundtrip;
      QCheck_alcotest.to_alcotest prop_vec_to_array;
      Alcotest.test_case "heap order" `Quick test_heap_order;
      QCheck_alcotest.to_alcotest prop_heap_sorted;
      QCheck_alcotest.to_alcotest prop_heap_vs_model;
      Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
      Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
      Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutes;
      Alcotest.test_case "stats" `Quick test_stats;
      Alcotest.test_case "hist basics" `Quick test_hist_basics;
      Alcotest.test_case "hist merge" `Quick test_hist_merge;
      QCheck_alcotest.to_alcotest prop_hist_vs_percentile;
      Alcotest.test_case "table render" `Quick test_table_render;
      Alcotest.test_case "dpool preserves order" `Quick test_dpool_order;
      Alcotest.test_case "dpool propagates errors" `Quick test_dpool_exn;
      Alcotest.test_case "table cells" `Quick test_table_cells ] )

module Xk = Protolat_xkernel
module Msg = Xk.Msg
module Map = Xk.Map
module Event = Xk.Event
module Thread = Xk.Thread
module Pool = Xk.Pool
module Simmem = Xk.Simmem

let sim () = Simmem.create ()

(* ----- simmem ----------------------------------------------------------- *)

let test_simmem_alignment () =
  let s = sim () in
  let a = Simmem.alloc s 3 in
  let b = Simmem.alloc s 8 in
  Alcotest.(check int) "aligned" 0 (b mod 8);
  Alcotest.(check bool) "disjoint" true (b >= a + 3)

(* ----- messages ----------------------------------------------------------- *)

let test_msg_push_pop () =
  let m = Msg.of_string (sim ()) "payload" in
  Msg.push m (Bytes.of_string "HDR1");
  Msg.push m (Bytes.of_string "H2");
  Alcotest.(check int) "len" 13 (Msg.len m);
  Alcotest.(check string) "pop h2" "H2" (Bytes.to_string (Msg.pop m 2));
  Alcotest.(check string) "pop h1" "HDR1" (Bytes.to_string (Msg.pop m 4));
  Alcotest.(check string) "payload intact" "payload"
    (Bytes.to_string (Msg.contents m))

let prop_msg_roundtrip =
  QCheck.Test.make ~name:"msg push/pop roundtrip" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 1 32)) string)
    (fun (hdr, payload) ->
      let m = Msg.of_string (sim ()) payload in
      Msg.push m (Bytes.of_string hdr);
      let h = Bytes.to_string (Msg.pop m (String.length hdr)) in
      h = hdr && Bytes.to_string (Msg.contents m) = payload)

let test_msg_headroom_exhaustion () =
  let m = Msg.of_string (sim ()) ~headroom:4 "x" in
  Alcotest.check_raises "exhausted" (Failure "Msg.push: headroom exhausted")
    (fun () -> Msg.push m (Bytes.make 5 'h'))

let test_msg_pop_short () =
  let m = Msg.of_string (sim ()) "ab" in
  Alcotest.check_raises "short" (Invalid_argument "Msg.pop: message too short")
    (fun () -> ignore (Msg.pop m 3))

let test_msg_refcount_refresh () =
  let s = sim () in
  let m = Msg.of_string s "data" in
  let addr0 = Msg.sim_addr m in
  Alcotest.(check bool) "sole ref reused" true (Msg.refresh s m = Msg.Reused);
  Alcotest.(check int) "address stable on reuse" addr0 (Msg.sim_addr m);
  Msg.retain m;
  Alcotest.(check int) "two refs" 2 (Msg.refs m);
  Alcotest.(check bool) "shared reallocates" true
    (Msg.refresh s m = Msg.Reallocated);
  Alcotest.(check bool) "new address" true (Msg.sim_addr m <> addr0)

let test_msg_refresh_no_shortcircuit () =
  let s = sim () in
  let m = Msg.of_string s "data" in
  Alcotest.(check bool) "forced realloc" true
    (Msg.refresh ~shortcircuit:false s m = Msg.Reallocated)

(* ----- map ------------------------------------------------------------------ *)

let test_map_bind_resolve () =
  let m = Map.create ~buckets:16 () in
  Map.bind m "a" 1;
  Map.bind m "b" 2;
  Alcotest.(check (option int)) "a" (Some 1) (Map.resolve m "a");
  Alcotest.(check (option int)) "b" (Some 2) (Map.resolve m "b");
  Alcotest.(check (option int)) "missing" None (Map.resolve m "c");
  Map.bind m "a" 10;
  Alcotest.(check (option int)) "rebind" (Some 10) (Map.resolve m "a");
  Alcotest.(check int) "size counts keys once" 2 (Map.size m)

let test_map_cache_hit () =
  let m = Map.create () in
  Map.bind m "k" 7;
  (match Map.resolve_detail m "k" with
  | Some (7, `Probed) -> ()
  | _ -> Alcotest.fail "first lookup probes");
  match Map.resolve_detail m "k" with
  | Some (7, `Cache_hit) -> ()
  | _ -> Alcotest.fail "second lookup hits the one-entry cache"

let test_map_unbind_invalidates_cache () =
  let m = Map.create () in
  Map.bind m "k" 1;
  ignore (Map.resolve m "k");
  Alcotest.(check bool) "unbind" true (Map.unbind m "k");
  Alcotest.(check (option int)) "gone" None (Map.resolve m "k");
  Alcotest.(check bool) "unbind missing" false (Map.unbind m "k")

let test_map_lazy_nonempty_list () =
  let m = Map.create ~buckets:8 () in
  for k = 0 to 19 do
    Map.bind m (string_of_int k) k
  done;
  let before = Map.nonempty_list_length m in
  for k = 0 to 19 do
    ignore (Map.unbind m (string_of_int k))
  done;
  (* lazy removal: the list still holds the emptied buckets *)
  Alcotest.(check int) "list unchanged by unbind" before
    (Map.nonempty_list_length m);
  Map.traverse m (fun _ _ -> ());
  (* the traversal cleaned it up *)
  Alcotest.(check int) "list empty after traversal" 0
    (Map.nonempty_list_length m)

let prop_map_traversal_complete =
  QCheck.Test.make ~name:"traversal visits each live binding once" ~count:100
    QCheck.(list (pair (string_of_size (QCheck.Gen.int_range 1 8)) int))
    (fun bindings ->
      let m = Map.create ~buckets:32 () in
      List.iter (fun (k, v) -> Map.bind m k v) bindings;
      (* model: last binding per key wins *)
      let model = Hashtbl.create 16 in
      List.iter (fun (k, v) -> Hashtbl.replace model k v) bindings;
      let seen = Hashtbl.create 16 in
      Map.traverse m (fun k v ->
          if Hashtbl.mem seen k then failwith "duplicate visit";
          Hashtbl.replace seen k v);
      Hashtbl.length seen = Hashtbl.length model
      && Hashtbl.fold
           (fun k v ok -> ok && Hashtbl.find_opt model k = Some v)
           seen true)

let prop_map_traversal_after_removals =
  QCheck.Test.make ~name:"traversal correct after random unbinds" ~count:100
    QCheck.(pair (small_nat) (small_nat))
    (fun (n, remove) ->
      let n = (n mod 60) + 1 in
      let m = Map.create ~buckets:16 () in
      for k = 0 to n - 1 do
        Map.bind m (string_of_int k) k
      done;
      for k = 0 to min (remove mod 60) (n - 1) do
        ignore (Map.unbind m (string_of_int k))
      done;
      let live = ref 0 in
      Map.traverse m (fun _ _ -> incr live);
      !live = Map.size m)

let test_map_counters () =
  let m = Map.create () in
  Map.bind m "x" 1;
  ignore (Map.resolve m "x");
  ignore (Map.resolve m "x");
  let c = Map.counters m in
  Alcotest.(check int) "resolves" 2 c.Map.resolves;
  Alcotest.(check int) "cache hits" 1 c.Map.cache_hits;
  Map.reset_counters m;
  Alcotest.(check int) "reset" 0 (Map.counters m).Map.resolves

(* ----- events ----------------------------------------------------------------- *)

let test_event_ordering () =
  let e = Event.create () in
  let log = ref [] in
  ignore (Event.register e ~at:30.0 (fun () -> log := 3 :: !log));
  ignore (Event.register e ~at:10.0 (fun () -> log := 1 :: !log));
  ignore (Event.register e ~at:20.0 (fun () -> log := 2 :: !log));
  Alcotest.(check int) "fired two" 2 (Event.advance e 25.0);
  Alcotest.(check (list int)) "in order" [ 2; 1 ] !log;
  Alcotest.(check int) "one pending" 1 (Event.pending e);
  Alcotest.(check (option (float 1e-9))) "next due" (Some 30.0)
    (Event.next_due e)

let test_event_cancel () =
  let e = Event.create () in
  let fired = ref false in
  let h = Event.register e ~at:5.0 (fun () -> fired := true) in
  Alcotest.(check bool) "cancel ok" true (Event.cancel h);
  Alcotest.(check bool) "cancel twice" false (Event.cancel h);
  ignore (Event.advance e 10.0);
  Alcotest.(check bool) "not fired" false !fired

let test_event_reentrant_register () =
  let e = Event.create () in
  let count = ref 0 in
  ignore
    (Event.register e ~at:1.0 (fun () ->
         incr count;
         ignore (Event.register e ~at:2.0 (fun () -> incr count))));
  ignore (Event.advance e 3.0);
  Alcotest.(check int) "cascaded" 2 !count

(* next_due must peek: popping the live top and pushing it back would give
   it a fresh sequence number, so it would fire after a later-registered
   timer with the same deadline *)
let test_event_next_due_fifo () =
  let e = Event.create () in
  let log = ref [] in
  let dead = Event.register e ~at:5.0 (fun () -> log := 0 :: !log) in
  ignore (Event.register e ~at:10.0 (fun () -> log := 1 :: !log));
  ignore (Event.register e ~at:10.0 (fun () -> log := 2 :: !log));
  ignore (Event.cancel dead);
  Alcotest.(check (option (float 1e-9))) "skips cancelled" (Some 10.0)
    (Event.next_due e);
  Alcotest.(check int) "fired two" 2 (Event.advance e 10.0);
  Alcotest.(check (list int)) "FIFO at equal deadlines" [ 1; 2 ]
    (List.rev !log);
  Alcotest.(check (option (float 1e-9))) "drained" None (Event.next_due e)

(* ----- threads ----------------------------------------------------------------- *)

let test_stack_pool_lifo () =
  let pool = Thread.Stack_pool.create (sim ()) () in
  let s1 = Thread.Stack_pool.acquire pool in
  Thread.Stack_pool.release pool s1;
  let s2 = Thread.Stack_pool.acquire pool in
  Alcotest.(check int) "LIFO reuse" s1.Thread.Stack_pool.id
    s2.Thread.Stack_pool.id;
  Alcotest.(check int) "one created" 1 (Thread.Stack_pool.created pool);
  Alcotest.(check int) "one reuse" 1 (Thread.Stack_pool.reuses pool)

let test_sched_runs_continuations () =
  let pool = Thread.Stack_pool.create (sim ()) () in
  let sched = Thread.create pool in
  let log = ref [] in
  Thread.spawn sched (fun () -> log := 1 :: !log);
  Thread.spawn sched (fun () -> log := 2 :: !log);
  Alcotest.(check int) "ran two" 2 (Thread.run sched);
  Alcotest.(check (list int)) "fifo" [ 2; 1 ] !log;
  (* both continuations reused the same LIFO stack *)
  Alcotest.(check int) "one stack" 1 (Thread.Stack_pool.created pool)

let test_condition_signal () =
  let pool = Thread.Stack_pool.create (sim ()) () in
  let sched = Thread.create pool in
  let cond = Thread.Condition.create () in
  let got = ref None in
  Thread.Condition.wait cond (fun v -> got := Some v);
  Alcotest.(check int) "one waiter" 1 (Thread.Condition.waiters cond);
  Alcotest.(check bool) "signal" true (Thread.Condition.signal sched cond 42);
  Alcotest.(check bool) "no waiter left" true
    (Thread.Condition.waiters cond = 0);
  ignore (Thread.run sched);
  Alcotest.(check (option int)) "continuation got value" (Some 42) !got;
  Alcotest.(check bool) "signal empty" false
    (Thread.Condition.signal sched cond 0)

(* ----- pool ----------------------------------------------------------------- *)

let test_pool () =
  let s = sim () in
  let p = Pool.create s ~buffers:2 ~size:128 () in
  let m1 = Pool.get p in
  let _m2 = Pool.get p in
  Alcotest.(check int) "drained" 0 (Pool.available p);
  Alcotest.check_raises "exhausted" (Failure "Pool.get: exhausted") (fun () ->
      ignore (Pool.get p));
  Alcotest.(check bool) "put reuses" true (Pool.put p m1 = Msg.Reused);
  Alcotest.(check int) "back" 1 (Pool.available p);
  Alcotest.(check int) "reused count" 1 (Pool.reused p)

let test_pool_no_shortcircuit () =
  let s = sim () in
  let p = Pool.create s ~shortcircuit:false ~buffers:1 ~size:64 () in
  let m = Pool.get p in
  Alcotest.(check bool) "realloc" true (Pool.put p m = Msg.Reallocated);
  Alcotest.(check int) "realloc count" 1 (Pool.reallocated p)

(* ----- protocol graph ----------------------------------------------------- *)

let test_protocol_render () =
  let g =
    Xk.Protocol.make "X" [ { Xk.Protocol.name = "A"; role = "" };
                           { Xk.Protocol.name = "BB"; role = "" } ]
  in
  let s = Xk.Protocol.render g in
  Alcotest.(check bool) "contains names" true
    (String.length s > 0
    && Xk.Protocol.names g = [ "A"; "BB" ])

let suite =
  ( "xkernel",
    [ Alcotest.test_case "simmem alignment" `Quick test_simmem_alignment;
      Alcotest.test_case "msg push/pop" `Quick test_msg_push_pop;
      QCheck_alcotest.to_alcotest prop_msg_roundtrip;
      Alcotest.test_case "msg headroom" `Quick test_msg_headroom_exhaustion;
      Alcotest.test_case "msg pop short" `Quick test_msg_pop_short;
      Alcotest.test_case "msg refresh" `Quick test_msg_refcount_refresh;
      Alcotest.test_case "msg refresh off" `Quick
        test_msg_refresh_no_shortcircuit;
      Alcotest.test_case "map bind/resolve" `Quick test_map_bind_resolve;
      Alcotest.test_case "map one-entry cache" `Quick test_map_cache_hit;
      Alcotest.test_case "map unbind" `Quick test_map_unbind_invalidates_cache;
      Alcotest.test_case "map lazy list" `Quick test_map_lazy_nonempty_list;
      QCheck_alcotest.to_alcotest prop_map_traversal_complete;
      QCheck_alcotest.to_alcotest prop_map_traversal_after_removals;
      Alcotest.test_case "map counters" `Quick test_map_counters;
      Alcotest.test_case "event ordering" `Quick test_event_ordering;
      Alcotest.test_case "event cancel" `Quick test_event_cancel;
      Alcotest.test_case "event reentrant" `Quick test_event_reentrant_register;
      Alcotest.test_case "event next_due keeps FIFO" `Quick
        test_event_next_due_fifo;
      Alcotest.test_case "stack pool LIFO" `Quick test_stack_pool_lifo;
      Alcotest.test_case "sched continuations" `Quick
        test_sched_runs_continuations;
      Alcotest.test_case "condition signal" `Quick test_condition_signal;
      Alcotest.test_case "pool" `Quick test_pool;
      Alcotest.test_case "pool no shortcircuit" `Quick test_pool_no_shortcircuit;
      Alcotest.test_case "protocol render" `Quick test_protocol_render ] )

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
  Alcotest.(check bool) "cancel ok" true (Event.cancel e h);
  Alcotest.(check bool) "cancel twice" false (Event.cancel e h);
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
  ignore (Event.cancel e dead);
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

(* ----- meter sites ------------------------------------------------------- *)

module Site = Xk.Meter.Site

let test_site_interning () =
  let id (s : Site.t) = (s :> int) in
  let b = Site.block "site_test_f" "blk" in
  let n = Site.count () in
  Alcotest.(check int) "same names, same block site" (id b)
    (id (Site.block "site_test_f" "blk"));
  Alcotest.(check int) "same names, same fn site"
    (id (Site.fn "site_test_f"))
    (id (Site.fn "site_test_f"));
  Alcotest.(check int) "same names, same call site"
    (id (Site.call "site_test_f" "blk" 1))
    (id (Site.call "site_test_f" "blk" 1));
  let all =
    [ Site.fn "site_test_f"; b; Site.cold "site_test_f" "blk";
      Site.call "site_test_f" "blk" 0; Site.call "site_test_f" "blk" 1;
      Site.block "site_test_g" "blk" ]
  in
  Alcotest.(check int) "each shape is its own site" (List.length all)
    (List.length (List.sort_uniq compare (List.map id all)));
  Alcotest.(check int) "only new names intern" (n + 5) (Site.count ());
  Alcotest.(check bool) "sites are dense" true
    (List.for_all (fun s -> id s >= 0 && id s < Site.count ()) all);
  List.iter
    (fun (s, f, shape) ->
      Alcotest.(check string) "func back" f (Site.func s);
      Alcotest.(check bool) "shape back" true (Site.shape s = shape))
    [ (b, "site_test_f", Site.Hot "blk");
      (Site.fn "site_test_f", "site_test_f", Site.Fn);
      (Site.cold "site_test_f" "blk", "site_test_f", Site.Cold "blk");
      (Site.call "site_test_f" "blk" 1, "site_test_f", Site.Stub ("blk", 1)) ]

(* Protocol modules intern their sites at initialisation, and late
   interning from several domains agrees on one id per name. *)
let test_site_registration () =
  let n = Site.count () in
  ignore (Site.block "map_resolve" "entry");
  ignore (Site.cold "tcp_input" "bad_cksum");
  Alcotest.(check int) "protocol sites exist before first use" n
    (Site.count ());
  let names = List.init 64 (fun i -> Printf.sprintf "site_race_%d" i) in
  let intern () = List.map (fun f -> (Site.fn f :> int)) names in
  let d = Domain.spawn intern in
  let here = intern () in
  Alcotest.(check (list int)) "one id per name across domains" here
    (Domain.join d)

(* A traversal builds one visitor per call, not one per bucket it
   visits: with a closure per bucket, one traverse of this map read about
   507 words and a full scan 5,139. *)
let test_map_traverse_allocation () =
  let m = Map.create ~buckets:1024 () in
  for k = 0 to 101 do
    Map.bind m (Printf.sprintf "key%06d" k) k
  done;
  let sum = ref 0 in
  let visit _ v = sum := !sum + v in
  let words f =
    let w0 = Gc.minor_words () in
    f m visit;
    Gc.minor_words () -. w0
  in
  let w = words Map.traverse in
  let w_all = words Map.traverse_all_buckets in
  Alcotest.(check int) "both visit every binding" (2 * 5151) !sum;
  Alcotest.(check bool)
    (Printf.sprintf "a traverse allocates %.0f words, under 64" w)
    true (w < 64.0);
  Alcotest.(check bool)
    (Printf.sprintf "a full scan allocates %.0f words, under 64" w_all)
    true (w_all < 64.0)

(* A pool builds each buffer on its first get, at the address create
   reserved for it: a get/put script gives the same addresses, counts and
   final allocator cursor as buffers all built at create with [Msg.alloc].
   'g' gets, 'p' puts the newest buffer held, 'o' the oldest, and 'r'
   retains the newest before putting it, so its refresh reallocates. *)
let test_pool_builds_on_first_get () =
  List.iter
    (fun shortcircuit ->
      let lazy_sim = sim () and eager_sim = sim () in
      let p = Pool.create lazy_sim ~shortcircuit ~buffers:4 ~size:64 () in
      let eager = ref (List.init 4 (fun _ -> Msg.alloc eager_sim 64)) in
      let held = ref [] in
      let put_back (m, e) =
        ignore (Pool.put p m);
        ignore (Msg.refresh ~shortcircuit eager_sim e);
        eager := e :: !eager
      in
      String.iteri
        (fun step op ->
          let what = Printf.sprintf "step %d (%c)" step op in
          (match (op, !held) with
          | 'g', _ ->
            let m = Pool.get p in
            let e = List.hd !eager in
            eager := List.tl !eager;
            Alcotest.(check int) (what ^ " address") (Msg.sim_addr e)
              (Msg.sim_addr m);
            held := (m, e) :: !held
          | 'p', b :: rest ->
            held := rest;
            put_back b
          | 'o', _ :: _ ->
            let rev = List.rev !held in
            held := List.rev (List.tl rev);
            put_back (List.hd rev)
          | 'r', ((m, e) as b) :: rest ->
            Msg.retain m;
            Msg.retain e;
            held := rest;
            put_back b
          | _ -> Alcotest.fail (what ^ ": bad script"));
          Alcotest.(check int) (what ^ " available") (List.length !eager)
            (Pool.available p))
        "ggpgggopgrggpooggrpp";
      Alcotest.(check int) "final cursor" (Simmem.cursor eager_sim)
        (Simmem.cursor lazy_sim))
    [ true; false ]

(* A demux lookup, hit or miss, allocates nothing but its key: a hit
   returns the [Some] its binding keeps, the hit kind is a flag and the
   hash is a loop.  Each lookup read 14.4 words when it built a pair, two
   options and the hash's closure and ref. *)
let test_demux_lookup_allocation () =
  let m = Map.create ~buckets:64 () in
  let keys = Array.init 32 (fun k -> Printf.sprintf "key%04d" k) in
  (* every fourth key is unbound: a miss *)
  Array.iteri (fun i k -> if i mod 4 <> 3 then Map.bind m k i) keys;
  let caller = Xk.Demux.caller "tcp_demux" in
  let found = ref 0 in
  let lookups inline =
    (* each key twice in a row: a probe or a miss, then a cache hit *)
    for i = 0 to 999 do
      match
        Xk.Demux.lookup Xk.Meter.null ~inline ~caller m keys.(i / 2 mod 32)
      with
      | Some _ -> incr found
      | None -> ()
    done
  in
  List.iter
    (fun inline ->
      lookups inline;
      found := 0;
      let w0 = Gc.minor_words () in
      lookups inline;
      let w = Gc.minor_words () -. w0 in
      Alcotest.(check int) "hits" 750 !found;
      Alcotest.(check bool)
        (Printf.sprintf "1,000 lookups (inline %b) allocate %.0f words, under 64"
           inline w)
        true (w < 64.0))
    [ true; false ];
  let c = Map.counters m in
  Alcotest.(check bool) "cache hits counted" true (c.Map.cache_hits > 0)

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
      Alcotest.test_case "protocol render" `Quick test_protocol_render;
      Alcotest.test_case "meter site interning" `Quick test_site_interning;
      Alcotest.test_case "meter site registration" `Quick
        test_site_registration;
      Alcotest.test_case "map traverse allocates under 64 words" `Quick
        test_map_traverse_allocation;
      Alcotest.test_case "pool builds buffers on first get" `Quick
        test_pool_builds_on_first_get;
      Alcotest.test_case "demux lookup allocates under 64 words" `Quick
        test_demux_lookup_allocation ] )

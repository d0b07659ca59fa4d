module M = Protolat_machine
module Instr = M.Instr
module Cache = M.Cache
module Wb = M.Write_buffer
module Memsys = M.Memsys
module Trace = M.Trace
module Cpu = M.Cpu
module Params = M.Params

(* ----- instruction vectors ------------------------------------------------ *)

let test_vector_total () =
  let v = Instr.vec ~alu:10 ~load:4 ~store:2 ~br_taken:1 ~jsr:1 () in
  Alcotest.(check int) "total" 18 (Instr.total v);
  let w = Instr.add v (Instr.scale 2 v) in
  Alcotest.(check int) "add+scale" (3 * 18) (Instr.total w)

let prop_expand_preserves_counts =
  let gen =
    QCheck.Gen.(
      map
        (fun (a, l, s, bt, bnt) ->
          Instr.vec ~alu:a ~load:l ~store:s ~br_taken:bt ~br_not_taken:bnt ())
        (tup5 (int_bound 40) (int_bound 15) (int_bound 10) (int_bound 4)
           (int_bound 4)))
  in
  QCheck.Test.make ~name:"expand preserves class counts" ~count:200
    (QCheck.make gen) (fun v ->
      let a = Instr.expand v in
      let count c = Array.to_list a |> List.filter (( = ) c) |> List.length in
      Array.length a = Instr.total v
      && count Instr.Alu = v.Instr.alu
      && count Instr.Load = v.Instr.load
      && count Instr.Store = v.Instr.store
      && count Instr.Br_taken = v.Instr.br_taken
      && count Instr.Br_not_taken = v.Instr.br_not_taken)

(* The list-based expansion [Instr.expand] replaced, kept as its oracle:
   the same interleaving built with list splices. *)
let list_spread base extras =
  let nb = List.length base and ne = List.length extras in
  if ne = 0 then base
  else if nb = 0 then extras
  else begin
    let positions = Array.init ne (fun i -> (i + 1) * nb / (ne + 1)) in
    let extras = Array.of_list extras and base_arr = Array.of_list base in
    let out = ref [] and e = ref (ne - 1) in
    for i = nb - 1 downto 0 do
      while !e >= 0 && positions.(!e) > i do
        out := extras.(!e) :: !out;
        decr e
      done;
      out := base_arr.(i) :: !out
    done;
    while !e >= 0 do
      out := extras.(!e) :: !out;
      decr e
    done;
    !out
  end

let list_expand (v : Instr.vector) =
  let n = Instr.total v in
  let out = Array.make n Instr.Alu in
  if n = 0 then out
  else begin
    let rep k c = List.init k (fun _ -> c) in
    let body =
      list_spread
        (list_spread (rep v.Instr.alu Instr.Alu) (rep v.Instr.mul Instr.Mul))
        (rep v.Instr.nop Instr.Nop)
    in
    let merged =
      list_spread body (rep v.Instr.load Instr.Load @ rep v.Instr.store Instr.Store)
    in
    let control =
      rep v.Instr.br_not_taken Instr.Br_not_taken
      @ rep v.Instr.jsr Instr.Jsr
      @ rep v.Instr.br_taken Instr.Br_taken
      @ rep v.Instr.ret Instr.Ret
    in
    let seq =
      match List.rev control with
      | [] -> merged
      | last :: interior_rev -> list_spread merged (List.rev interior_rev) @ [ last ]
    in
    List.iteri (fun i c -> if i < n then out.(i) <- c) seq;
    out
  end

let show_vector (v : Instr.vector) =
  Printf.sprintf "alu %d load %d store %d br+ %d br- %d jsr %d ret %d mul %d nop %d"
    v.Instr.alu v.Instr.load v.Instr.store v.Instr.br_taken v.Instr.br_not_taken
    v.Instr.jsr v.Instr.ret v.Instr.mul v.Instr.nop

(* every class count, each zero a third of the time, so zero and
   single-class vectors come up often *)
let prop_expand_matches_list_oracle =
  let count = QCheck.Gen.(frequency [ (1, return 0); (2, int_bound 24) ]) in
  let gen =
    QCheck.Gen.(
      map
        (fun ((alu, load, store, br_taken, br_not_taken), (jsr, ret, mul, nop)) ->
          Instr.vec ~alu ~load ~store ~br_taken ~br_not_taken ~jsr ~ret ~mul ~nop ())
        (pair (tup5 count count count count count) (tup4 count count count count)))
  in
  QCheck.Test.make ~name:"expand equals the list-based oracle" ~count:500
    (QCheck.make ~print:show_vector gen) (fun v -> Instr.expand v = list_expand v)

let test_expand_oracle_edges () =
  let one k =
    [ Instr.vec ~alu:k (); Instr.vec ~load:k (); Instr.vec ~store:k ();
      Instr.vec ~br_taken:k (); Instr.vec ~br_not_taken:k (); Instr.vec ~jsr:k ();
      Instr.vec ~ret:k (); Instr.vec ~mul:k (); Instr.vec ~nop:k () ]
  in
  List.iter
    (fun v ->
      Alcotest.(check bool) (show_vector v) true (Instr.expand v = list_expand v))
    (Instr.zero :: List.concat_map one [ 1; 2; 7 ])

(* every block, prologue and epilogue vector of both stacks' cost
   models, under both option sets *)
let test_expand_specs () =
  let module F = Protolat_layout.Func in
  let module T = Protolat_tcpip in
  let vectors (f : F.t) =
    f.F.prologue :: f.F.epilogue
    :: List.map (fun (it : F.item) -> it.F.block.Protolat_layout.Block.vec) f.F.items
  in
  let n = ref 0 in
  List.iter
    (fun opts ->
      List.iter
        (fun (f : F.t) ->
          List.iter
            (fun v ->
              incr n;
              if Instr.expand v <> list_expand v then
                Alcotest.failf "%s: %s" f.F.name (show_vector v))
            (vectors f))
        (T.Specs.all opts @ Protolat_rpc.Specs.all opts))
    [ T.Opts.original; T.Opts.improved ];
  Alcotest.(check bool) "vectors checked" true (!n > 500)

let test_expand_control_last () =
  let v = Instr.vec ~alu:8 ~ret:1 () in
  let a = Instr.expand v in
  Alcotest.(check bool) "ret last" true (a.(Array.length a - 1) = Instr.Ret)

(* ----- direct-mapped cache ------------------------------------------------ *)

let mk_cache () = Cache.create ~name:"t" ~size_bytes:1024 ~block_bytes:32

let test_cache_hit_miss () =
  let c = mk_cache () in
  Alcotest.(check bool) "cold" true (Cache.access c 0 = Cache.Miss_cold);
  Alcotest.(check bool) "hit same block" true (Cache.access c 4 = Cache.Hit);
  Alcotest.(check bool) "other block cold" true
    (Cache.access c 32 = Cache.Miss_cold);
  (* 1024-byte cache: address 1024 maps to the same set as 0 *)
  Alcotest.(check bool) "conflict evicts" true
    (Cache.access c 1024 = Cache.Miss_cold);
  Alcotest.(check bool) "replacement miss" true
    (Cache.access c 0 = Cache.Miss_repl);
  Alcotest.(check int) "repl count" 1 (Cache.repl_misses c);
  Alcotest.(check int) "accesses" 5 (Cache.accesses c);
  Alcotest.(check int) "hits+misses=accesses" (Cache.accesses c)
    (Cache.hits c + Cache.misses c)

let test_cache_invalidate () =
  let c = mk_cache () in
  ignore (Cache.access c 0);
  Alcotest.(check bool) "probe resident" true (Cache.probe c 0);
  Cache.invalidate_all c;
  Alcotest.(check bool) "probe gone" false (Cache.probe c 0);
  (* a re-access after invalidation counts as a replacement miss: the block
     was resident before *)
  Alcotest.(check bool) "repl after invalidate" true
    (Cache.access c 0 = Cache.Miss_repl)

let test_cache_bad_geometry () =
  Alcotest.check_raises "non-pow2"
    (Invalid_argument "Cache.create: sizes must be powers of two") (fun () ->
      ignore (Cache.create ~name:"x" ~size_bytes:1000 ~block_bytes:32))

let prop_cache_deterministic =
  QCheck.Test.make ~name:"cache accounting invariant" ~count:100
    QCheck.(list (int_bound 4096))
    (fun addrs ->
      let c = mk_cache () in
      List.iter (fun a -> ignore (Cache.access c a)) addrs;
      Cache.accesses c = List.length addrs
      && Cache.hits c + Cache.cold_misses c + Cache.repl_misses c
         = Cache.accesses c)

(* ----- write buffer -------------------------------------------------------- *)

let test_wb_merge () =
  let wb = Wb.create ~depth:4 ~block_bytes:32 in
  Alcotest.(check bool) "first buffered" true (Wb.write wb 0 = Wb.Buffered);
  Alcotest.(check bool) "same block merges" true (Wb.write wb 8 = Wb.Merged);
  ignore (Wb.write wb 32);
  ignore (Wb.write wb 64);
  ignore (Wb.write wb 96);
  Alcotest.(check int) "full" 4 (Wb.occupancy wb);
  (match Wb.write wb 128 with
  | Wb.Retired victim -> Alcotest.(check int) "oldest retires" 0 victim
  | _ -> Alcotest.fail "expected retire");
  Alcotest.(check int) "drain" 4 (List.length (Wb.drain wb));
  Alcotest.(check int) "empty after drain" 0 (Wb.occupancy wb)

(* ----- memory system -------------------------------------------------------- *)

let p = Params.default

let test_memsys_ifetch () =
  let m = Memsys.create p in
  let s1 = Memsys.ifetch m 0x10000 in
  Alcotest.(check bool) "first fetch stalls" true (s1 > 0.0);
  let s2 = Memsys.ifetch m 0x10004 in
  Alcotest.(check (float 0.0)) "same block free" 0.0 s2;
  (* sequential next block is cheaper than a stream restart *)
  let seq = Memsys.ifetch m 0x10020 in
  Memsys.reset_stats m;
  let far = Memsys.ifetch m 0x40000 in
  Alcotest.(check bool) "sequential cheaper" true (seq < far)

let test_memsys_prefetch_counted () =
  let m = Memsys.create p in
  ignore (Memsys.ifetch m 0x10000);
  (* a stream restart costs one demand access plus one prefetch access *)
  let st = Memsys.stats m in
  Alcotest.(check int) "b accesses incl prefetch" 2
    st.Memsys.bcache.Memsys.acc

let test_memsys_dwb_accounting () =
  let m = Memsys.create p in
  ignore (Memsys.load m 0x2000);
  ignore (Memsys.load m 0x2008);
  ignore (Memsys.store m 0x3000);
  ignore (Memsys.store m 0x3008);
  let st = Memsys.stats m in
  Alcotest.(check int) "dwb accesses" 4 st.Memsys.dwb.Memsys.acc;
  (* one read miss (second load hits), one non-merged write *)
  Alcotest.(check int) "dwb misses" 2 st.Memsys.dwb.Memsys.miss

let test_memsys_warm_b () =
  let m = Memsys.create p in
  ignore (Memsys.ifetch m 0x10000);
  Memsys.invalidate_primary m;
  Memsys.reset_stats m;
  ignore (Memsys.ifetch m 0x10000);
  let st = Memsys.stats m in
  Alcotest.(check int) "b-cache warm: no miss" 0 st.Memsys.bcache.Memsys.miss

(* ----- CPU ------------------------------------------------------------------ *)

let trace_of classes =
  let t = Trace.create () in
  List.iteri (fun i c -> Trace.add t ~pc:(4 * i) ~cls:c ()) classes;
  t

let test_pairing_rule () =
  Alcotest.(check bool) "alu+load pair" true (Cpu.can_pair Instr.Alu Instr.Load);
  Alcotest.(check bool) "alu+alu no" false (Cpu.can_pair Instr.Alu Instr.Alu);
  Alcotest.(check bool) "load+store no" false
    (Cpu.can_pair Instr.Load Instr.Store);
  Alcotest.(check bool) "mul single" false (Cpu.can_pair Instr.Mul Instr.Load)

let test_issue_bounds () =
  let t = trace_of [ Instr.Alu; Instr.Load; Instr.Alu; Instr.Load ] in
  let c = Cpu.issue_cycles p t in
  Alcotest.(check bool) "issue within [n/2, n]" true (c >= 2.0 && c <= 4.0)

let test_icpi_penalties () =
  let quiet = trace_of (List.init 20 (fun _ -> Instr.Alu)) in
  let branchy =
    trace_of
      (List.concat (List.init 10 (fun _ -> [ Instr.Alu; Instr.Br_taken ])))
  in
  Alcotest.(check bool) "taken branches raise iCPI" true
    (Cpu.icpi p branchy > Cpu.icpi p quiet)

let test_perf_cold_vs_steady () =
  (* a loop over 2KB of code: cold pass misses, steady pass fits in the
     8KB i-cache and hits *)
  let t = Trace.create () in
  for _ = 1 to 3 do
    for i = 0 to 511 do
      Trace.add t ~pc:(0x10000 + (4 * i)) ~cls:Instr.Alu ()
    done
  done;
  let cold = M.Perf.cold p t and steady = M.Perf.steady p t in
  Alcotest.(check bool) "steady cheaper" true
    (steady.M.Perf.mcpi < cold.M.Perf.mcpi);
  Alcotest.(check (float 1e-6)) "steady mCPI ~ 0" 0.0 steady.M.Perf.mcpi

let prop_memsys_accounting =
  QCheck.Test.make ~name:"memsys stats account every access" ~count:60
    QCheck.(list (pair (int_bound 2) (int_bound 0xFFFF)))
    (fun ops ->
      let m = Memsys.create p in
      let loads = ref 0 and stores = ref 0 in
      List.iter
        (fun (kind, addr) ->
          match kind with
          | 0 -> ignore (Memsys.ifetch m (0x10000 + (addr land 0xFFFC)))
          | 1 ->
            incr loads;
            ignore (Memsys.load m addr)
          | _ ->
            incr stores;
            ignore (Memsys.store m addr))
        ops;
      let st = Memsys.stats m in
      st.Memsys.dwb.Memsys.acc = !loads + !stores
      && st.Memsys.dwb.Memsys.miss <= st.Memsys.dwb.Memsys.acc
      && st.Memsys.stall_cycles >= 0.0
      && st.Memsys.bcache.Memsys.miss <= st.Memsys.bcache.Memsys.acc)

let prop_steady_never_worse_than_cold =
  QCheck.Test.make ~name:"steady replay never stalls more than cold" ~count:30
    QCheck.(list (int_bound 4000))
    (fun pcs ->
      QCheck.assume (pcs <> []);
      let t = Trace.create () in
      List.iter
        (fun a -> Trace.add t ~pc:(0x10000 + (a * 4)) ~cls:Instr.Alu ())
        pcs;
      let cold = M.Perf.cold p t and steady = M.Perf.steady p t in
      steady.M.Perf.mcpi <= cold.M.Perf.mcpi +. 1e-9)

let test_trace_stats () =
  let t =
    trace_of [ Instr.Alu; Instr.Br_taken; Instr.Br_not_taken; Instr.Alu ]
  in
  Alcotest.(check (float 1e-9)) "taken fraction" 0.25
    (Trace.taken_branch_fraction t);
  Alcotest.(check int) "distinct blocks" 1 (Trace.distinct_blocks t ~block_bytes:32)

(* The packed struct-of-arrays trace must behave exactly like the boxed
   event list it replaced: build a random event list, append it through
   [add], and check the [_at] accessors, [get]/[iter] and [class_counts]
   against the reference. *)
let prop_trace_soa_roundtrip =
  let cls_gen = QCheck.Gen.oneofl Instr.all in
  let access_gen =
    QCheck.Gen.(
      frequency
        [ (3, return None);
          (1, map (fun a -> Some (Trace.Read a)) (int_bound 0xFFFF));
          (1, map (fun a -> Some (Trace.Write a)) (int_bound 0xFFFF)) ])
  in
  let event_gen =
    QCheck.Gen.(
      map2
        (fun (pc, cls) access -> { Trace.pc; cls; access })
        (pair (int_bound 0xFFFFF) cls_gen)
        access_gen)
  in
  QCheck.Test.make ~name:"packed trace round-trips events" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_bound 200) event_gen))
    (fun events ->
      let t = Trace.create () in
      List.iter
        (fun (e : Trace.event) ->
          Trace.add t ~pc:e.Trace.pc ~cls:e.Trace.cls ?access:e.Trace.access
            ())
        events;
      let n = List.length events in
      Trace.length t = n
      && List.for_all2
           (fun (e : Trace.event) i ->
             Trace.get t i = e
             && Trace.pc_at t i = e.Trace.pc
             && Trace.cls_at t i = e.Trace.cls
             &&
             match e.Trace.access with
             | None -> Trace.kind_at t i = Trace.kind_none
             | Some (Trace.Read a) ->
               Trace.kind_at t i = Trace.kind_read && Trace.addr_at t i = a
             | Some (Trace.Write a) ->
               Trace.kind_at t i = Trace.kind_write && Trace.addr_at t i = a)
           events
           (List.init n Fun.id)
      && (let seen = ref [] in
          Trace.iter (fun e -> seen := e :: !seen) t;
          List.rev !seen = events)
      && Trace.class_counts t
         = List.map
             (fun c ->
               ( c,
                 List.length
                   (List.filter (fun (e : Trace.event) -> e.Trace.cls = c)
                      events) ))
             Instr.all)

let suite =
  ( "machine",
    [ Alcotest.test_case "vector totals" `Quick test_vector_total;
      QCheck_alcotest.to_alcotest prop_expand_preserves_counts;
      Alcotest.test_case "expand control last" `Quick test_expand_control_last;
      QCheck_alcotest.to_alcotest prop_expand_matches_list_oracle;
      Alcotest.test_case "expand oracle on zero and single-class vectors" `Quick
        test_expand_oracle_edges;
      Alcotest.test_case "expand oracle on both stacks' specs" `Quick
        test_expand_specs;
      Alcotest.test_case "cache hit/miss/repl" `Quick test_cache_hit_miss;
      Alcotest.test_case "cache invalidate" `Quick test_cache_invalidate;
      Alcotest.test_case "cache geometry" `Quick test_cache_bad_geometry;
      QCheck_alcotest.to_alcotest prop_cache_deterministic;
      Alcotest.test_case "write buffer" `Quick test_wb_merge;
      QCheck_alcotest.to_alcotest prop_trace_soa_roundtrip;
      Alcotest.test_case "memsys ifetch" `Quick test_memsys_ifetch;
      Alcotest.test_case "memsys prefetch" `Quick test_memsys_prefetch_counted;
      Alcotest.test_case "memsys d/wb" `Quick test_memsys_dwb_accounting;
      Alcotest.test_case "memsys warm b-cache" `Quick test_memsys_warm_b;
      Alcotest.test_case "pairing rule" `Quick test_pairing_rule;
      Alcotest.test_case "issue bounds" `Quick test_issue_bounds;
      Alcotest.test_case "icpi penalties" `Quick test_icpi_penalties;
      Alcotest.test_case "perf cold vs steady" `Quick test_perf_cold_vs_steady;
      QCheck_alcotest.to_alcotest prop_memsys_accounting;
      QCheck_alcotest.to_alcotest prop_steady_never_worse_than_cold;
      Alcotest.test_case "trace stats" `Quick test_trace_stats ] )

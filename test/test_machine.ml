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

(* ----- paged tags vs the flat reference ------------------------------------ *)

(* The cache before its tags were paged: one flat tag array over every set
   and the same eviction bitset.  The paged cache must match it step for
   step. *)
module Flat = struct
  type t = {
    block_shift : int;
    set_mask : int;
    tags : int array;
    mutable evicted : Bytes.t option array;
    mutable accesses : int;
    mutable hits : int;
    mutable cold : int;
    mutable repl : int;
    mutable last_victim : int;
  }

  let create ~size_bytes ~block_bytes =
    let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
    let sets = size_bytes / block_bytes in
    { block_shift = log2 block_bytes;
      set_mask = sets - 1;
      tags = Array.make sets (-1);
      evicted = Array.make 16 None;
      accesses = 0;
      hits = 0;
      cold = 0;
      repl = 0;
      last_victim = -1 }

  let evicted_mem t block =
    let page = block lsr 12 in
    page < Array.length t.evicted
    &&
    match t.evicted.(page) with
    | None -> false
    | Some bits ->
      let off = block land 4095 in
      Char.code (Bytes.get bits (off lsr 3)) land (1 lsl (off land 7)) <> 0

  let evicted_add t block =
    let page = block lsr 12 in
    if page >= Array.length t.evicted then begin
      let pages = Array.make (max (page + 1) (2 * Array.length t.evicted)) None in
      Array.blit t.evicted 0 pages 0 (Array.length t.evicted);
      t.evicted <- pages
    end;
    let bits =
      match t.evicted.(page) with
      | Some bits -> bits
      | None ->
        let bits = Bytes.make 512 '\000' in
        t.evicted.(page) <- Some bits;
        bits
    in
    let off = block land 4095 in
    Bytes.set bits (off lsr 3)
      (Char.chr
         (Char.code (Bytes.get bits (off lsr 3)) lor (1 lsl (off land 7))))

  let fill t block =
    let set = block land t.set_mask in
    t.accesses <- t.accesses + 1;
    let victim = t.tags.(set) in
    t.last_victim <- victim;
    if victim >= 0 then evicted_add t victim;
    t.tags.(set) <- block;
    if evicted_mem t block then begin
      t.repl <- t.repl + 1;
      true
    end
    else begin
      t.cold <- t.cold + 1;
      false
    end

  let access t addr =
    let block = addr lsr t.block_shift in
    if t.tags.(block land t.set_mask) = block then begin
      t.accesses <- t.accesses + 1;
      t.hits <- t.hits + 1;
      t.last_victim <- -1;
      Cache.Hit
    end
    else if fill t block then Cache.Miss_repl
    else Cache.Miss_cold

  let invalidate_all t =
    Array.iteri
      (fun i line ->
        if line >= 0 then begin
          evicted_add t line;
          t.tags.(i) <- -1
        end)
      t.tags

  let credit_hits t n =
    if n > 0 then begin
      t.accesses <- t.accesses + n;
      t.hits <- t.hits + n;
      t.last_victim <- -1
    end

  let reset_stats t =
    t.accesses <- 0;
    t.hits <- 0;
    t.cold <- 0;
    t.repl <- 0

  let clear t =
    Array.fill t.tags 0 (Array.length t.tags) (-1);
    t.evicted <- Array.make 16 None;
    reset_stats t;
    t.last_victim <- -1
end

(* One step, decoded from an int so QCheck can shrink streams: mostly
   lookups (by {!Cache.access}, or probe-then-fill the way {!Memsys}'s
   fused path does), sometimes a reset.  Sets come from a palette on both
   sides of page boundaries and at the cache's quarters and ends, so sets
   that share a page, sets a page apart and conflicting lines all recur;
   one choice in 17 is a set anywhere.  Lines sit near address 0 or near
   the data region at 0x1000_0000. *)
let paged_step (c : Cache.t) (f : Flat.t) x =
  let sets = c.Cache.sets in
  let pick = x / 64 in
  let set =
    match pick mod 17 with
    | 16 -> pick / 136 mod sets
    | i ->
      [| 0; 1; 2; 511; 512; 513; 1024; 1536; sets / 4; (sets / 4) + 512;
         sets / 2; (sets / 2) + 1; (sets / 2) + 512; sets - 512; sets - 2;
         sets - 1 |].(i)
      land (sets - 1)
  in
  let base =
    if pick / 68 land 1 = 1 then 0x1000_0000 lsr c.Cache.block_shift else 0
  in
  let line = base + (pick / 17 mod 4 * sets) + set in
  let addr =
    (line lsl c.Cache.block_shift) + (x / 7 land (c.Cache.block_bytes - 1))
  in
  match x mod 64 with
  | 0 ->
    Cache.clear c;
    Flat.clear f;
    true
  | 1 ->
    Cache.invalidate_all c;
    Flat.invalidate_all f;
    true
  | 2 ->
    Cache.reset_stats c;
    Flat.reset_stats f;
    true
  | 3 ->
    Cache.credit_hits c (pick mod 3);
    Flat.credit_hits f (pick mod 3);
    true
  | k when k < 24 ->
    (* the fused path's split: a probe, a credited hit or a fill *)
    let outcome =
      if Cache.probe c addr then begin
        Cache.credit_hits c 1;
        Cache.Hit
      end
      else if Cache.fill c line then Cache.Miss_repl
      else Cache.Miss_cold
    in
    outcome = Flat.access f addr
  | _ -> Cache.access c addr = Flat.access f addr

(* counters, the last victim and the line every set holds *)
let same_as_flat (c : Cache.t) (f : Flat.t) =
  Cache.accesses c = f.Flat.accesses
  && Cache.hits c = f.Flat.hits
  && Cache.cold_misses c = f.Flat.cold
  && Cache.repl_misses c = f.Flat.repl
  && Cache.last_victim c = f.Flat.last_victim
  &&
  let rec go s =
    s = c.Cache.sets || (Cache.tag c s = f.Flat.tags.(s) && go (s + 1))
  in
  go 0

let prop_paged_matches_flat (label, size_bytes, count, max_len) =
  QCheck.Test.make
    ~name:(Printf.sprintf "cache paged tags = flat reference (%s)" label)
    ~count
    QCheck.(
      list_of_size Gen.(int_range 1 max_len) (int_bound ((64 * 136 * 65536) - 1)))
    (fun xs ->
      let c = Cache.create ~name:label ~size_bytes ~block_bytes:32 in
      let f = Flat.create ~size_bytes ~block_bytes:32 in
      List.for_all (fun x -> paged_step c f x && same_as_flat c f) xs)

(* a cache smaller than a page, exactly one page, several pages, and the
   2MB b-cache (the last checked in fewer, shorter streams: every step
   compares all 65,536 sets) *)
let paged_geometries =
  [ ("64 sets", 2 * 1024, 100, 300);
    ("one page", 16 * 1024, 100, 300);
    ("four pages", 64 * 1024, 100, 300);
    ("b-cache", Params.default.Params.bcache_bytes, 15, 120) ]

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

(* ----- allocation ------------------------------------------------------------ *)

(* Words a call allocates: minor + major - promoted, as perfbench counts
   a call.  A full major collection at both ends, where perfbench runs a
   minor one: words allocated in the major heap can reach [major_words]
   late, when a major cycle ends, and with minor collections alone a
   [Memsys.clear], which allocates nothing, read 81,426 of them.  The
   counter reads allocate a few words themselves; [words_of ignore]
   measures that. *)
let allocated () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let words_of f =
  Gc.full_major ();
  let a0 = allocated () in
  let r = f () in
  Gc.full_major ();
  (r, allocated () -. a0)

let words_overhead () = snd (words_of ignore)

let test_memsys_create_allocation () =
  (* 66,200 words with a flat b-cache tag array (the b-cache's 65,536
     sets), 288 with paged tags *)
  let _, w = words_of (fun () -> Memsys.create p) in
  Alcotest.(check bool)
    (Printf.sprintf "Memsys.create allocates %.0f words, under 1,024" w)
    true (w < 1024.0)

(* code near 0x10000 looping over 12 KB (i-cache conflicts), data near
   0x1000_0000 cycling over 8 KB and moving 2 MB away and back every 1,280
   events (d-cache and b-cache conflicts): every cache evicts and
   refetches, so every cache materializes tag and eviction-bitset pages *)
let conflict_trace () =
  let t = Trace.create () in
  for i = 0 to 3999 do
    let pc = 0x10000 + (i * 4 mod (12 * 1024)) in
    let data =
      0x1000_0000 + (i / 5 mod 256 * 32) + (i / 1280 land 1 * 0x200000)
    in
    match i mod 5 with
    | 0 -> Trace.add t ~pc ~cls:Instr.Load ~access:(Trace.Read data) ()
    | 1 -> Trace.add t ~pc ~cls:Instr.Store ~access:(Trace.Write data) ()
    | _ -> Trace.add t ~pc ~cls:Instr.Alu ()
  done;
  t

let test_memsys_cleared_rerun_allocation () =
  (* 12,719 words for this trace (about 2,240 for a TCP/IP roundtrip's trace)
     when clear dropped the eviction bitset's pages; 47 when it empties
     them in place, 26 of them the counter reads and 19 the stats record *)
  let trace = conflict_trace () in
  let m = Memsys.create p in
  ignore (Memsys.run m trace);
  let first = Memsys.stats m in
  let again, w =
    words_of (fun () ->
        Memsys.clear m;
        ignore (Memsys.run m trace);
        Memsys.stats m)
  in
  Alcotest.(check bool) "the trace evicts from every cache" true
    (first.Memsys.icache.Memsys.repl > 0
    && first.Memsys.dwb.Memsys.repl > 0
    && first.Memsys.bcache.Memsys.repl > 0);
  Alcotest.(check bool) "a cleared re-run replays as a fresh hierarchy" true
    (again = first);
  Alcotest.(check bool)
    (Printf.sprintf "clear and re-run allocate %.0f words, under 64" w)
    true (w < 64.0)

(* Without [reserve], 5,000 appends grow the five columns through 1,024,
   2,048, 4,096 and 8,192 slots: 76,800 words. *)
let test_trace_reserve_allocation () =
  let n = 5000 in
  let append t =
    for i = 0 to n - 1 do
      Trace.add_packed t ~pc:(0x10000 + (4 * i))
        ~cls:(Instr.of_code (i mod Instr.n_classes))
        ~kind:(i mod 3) ~addr:(if i mod 3 = 0 then 0 else 0x1000_0000 + i)
        ~fid:(i mod 7 - 1)
    done
  in
  let reserved = Trace.create () in
  Trace.reserve reserved n;
  let (), w = words_of (fun () -> append reserved) in
  Alcotest.(check (float 0.0)) "n appends after reserve n allocate nothing"
    (words_overhead ()) w;
  let grown = Trace.create () in
  append grown;
  Alcotest.(check int) "same length" (Trace.length grown)
    (Trace.length reserved);
  for i = 0 to n - 1 do
    if
      Trace.pc_at grown i <> Trace.pc_at reserved i
      || Trace.cls_at grown i <> Trace.cls_at reserved i
      || Trace.kind_at grown i <> Trace.kind_at reserved i
      || Trace.addr_at grown i <> Trace.addr_at reserved i
      || Trace.fid_at grown i <> Trace.fid_at reserved i
    then Alcotest.failf "event %d differs from the unreserved trace" i
  done;
  (* past the reservation the columns grow as before *)
  append reserved;
  Alcotest.(check int) "appends past the reservation" (2 * n)
    (Trace.length reserved)

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
      Alcotest.test_case "trace stats" `Quick test_trace_stats ]
    @ List.map
        (fun g -> QCheck_alcotest.to_alcotest (prop_paged_matches_flat g))
        paged_geometries
    @ [ Alcotest.test_case "memsys create allocates under 1024 words" `Quick
          test_memsys_create_allocation;
        Alcotest.test_case "memsys cleared re-run allocates under 64 words"
          `Quick test_memsys_cleared_rerun_allocation;
        Alcotest.test_case "trace reserve makes appends allocation-free" `Quick
          test_trace_reserve_allocation ] )

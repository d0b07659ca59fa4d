module Util = Protolat_util
module Machine = Protolat_machine
module Layout = Protolat_layout
module Obs = Protolat_obs
module Table = Util.Table
module Rng = Util.Rng
module Dpool = Util.Dpool
module Trace = Machine.Trace
module Perf = Machine.Perf
module Memsys = Machine.Memsys
module Params = Machine.Params
module Image = Layout.Image
module Strategy = Layout.Strategy

type genome = {
  perm : int array;
  offs : int array;
  cold : bool array;
}

type point = {
  eval : int;
  us : float;
}

type cell = {
  stack : Engine.stack_kind;
  icache_kb : int;
  evals : int;
  eval_s : float;
  named : (Config.layout * float) list;
  seeded : Config.layout list;
  best : genome;
  best_us : float;
  best_order : string list;
  greedy_us : float;
  trajectory : point list;
}

type t = {
  cells : cell list;
  budget : int;
  seeds : int;
  jobs : int;
  wall_s : float;
}

let all_geometries = [ 4; 8; 16; 32 ]

let geometries = all_geometries

(* The reference geometry the engine's own placement strategies target.
   Genome set offsets are congruences modulo this size at every search
   geometry: a genome then denotes one concrete placement regardless of
   the cell scoring it, the named strategies stay exactly representable
   (so seeding them guarantees best-found <= best hand-picked), and since
   the smaller layout_matrix geometries divide it, an 8KB congruence pins
   the 4KB set too. *)
let code_base = 0x10000

let icache_ref = 8192

let block_bytes = 32

let nsets_ref = icache_ref / block_bytes

let best_named c =
  c.named
  |> List.filter (fun (l, _) -> l <> Config.Pessimal)
  |> List.fold_left
       (fun acc (l, us) ->
         match acc with
         | Some (_, b) when b <= us -> acc
         | _ -> Some (l, us))
       None
  |> Option.get

let candidates_per_sec (t : t) =
  let evals = List.fold_left (fun a (c : cell) -> a + c.evals) 0 t.cells in
  let s = List.fold_left (fun a (c : cell) -> a +. c.eval_s) 0.0 t.cells in
  if s <= 0.0 then 0.0 else float_of_int evals /. s

(* ----- genomes ------------------------------------------------------------- *)

let genome_key g =
  let b = Buffer.create 128 in
  Array.iter (fun i -> Buffer.add_string b (string_of_int i);
               Buffer.add_char b ',') g.perm;
  Buffer.add_char b '|';
  Array.iter (fun i -> Buffer.add_string b (string_of_int i);
               Buffer.add_char b ',') g.offs;
  Buffer.add_char b '|';
  Array.iter (fun c -> Buffer.add_char b (if c then '1' else '0')) g.cold;
  Buffer.contents b

let copy_genome g =
  { perm = Array.copy g.perm; offs = Array.copy g.offs;
    cold = Array.copy g.cold }

(* Genomes are never mutated once proposed, so the search memo is keyed
   by the genome itself. *)
module Memo = Hashtbl.Make (struct
  type t = genome

  let equal (a : genome) b = a = b

  let hash g =
    let h = ref 0 in
    Array.iter (fun x -> h := (!h * 31) + x) g.perm;
    Array.iter (fun x -> h := (!h * 31) + x) g.offs;
    Array.iter (fun c -> h := (!h * 31) + Bool.to_int c) g.cold;
    !h
end)

(* ----- per-stack context ---------------------------------------------------- *)

(* Everything a candidate's score needs that no candidate changes, all
   read from one base run.  A candidate only moves code, so its steady
   time is the base trace's instruction cycles, the data side's stall
   [dside], and the i-cache misses of the candidate's fetch stream (see
   [icharge]).  Every event is kept as (unit, offset), and the stream as
   runs of consecutive events of one unit on one line of its hot part:
   unit bases are block-aligned, so a run stays one line wherever the
   unit goes.  An event in an outlined cold block is a run of its own,
   since the chunks of the shared cold region are not line-aligned. *)
type sctx = {
  config : Config.t;
  stack : Engine.stack_kind;
  base : Engine.run_result;
  units : Image.unit_spec array;  (** canonical order, engine toggles *)
  order : string list;
  nu : int;
  unit_names : string array;
  base_cold : bool array;
  toggleable : bool array;
  toggles : int array;  (** indices of toggleable units *)
  unit_of_func : (string, int) Hashtbl.t;
  size : int array;  (** unit bytes with its cold blocks kept inside *)
  hot : int array;  (** unit bytes with its cold blocks deferred *)
  ev_unit : int array;  (** per event: owning unit *)
  ev_off : int array;
      (** per event: offset from the unit's base with its cold blocks kept
          inside, so [>= hot] marks a cold-block event *)
  run_unit : int array;  (** per run: owning unit *)
  run_off : int array;  (** per run: its first event's offset *)
  lines : int array;  (** per event: its line in the base image *)
  owner : string array;
      (** per line of the base image from [code_base]: the function
          [Obs.Attrib] names as its owner *)
  room : int;
      (** lines from [code_base] to the first b-cache set holding data
          (0 if the base trace's own code does not fit below it) *)
  dside : float;  (** stall cycles of the data side, the same for all *)
  instr_cycles : float;  (** perfect-memory cycles, the same for all *)
}

let apply_cold sctx cold =
  Array.mapi
    (fun i u ->
      if cold.(i) <> sctx.base_cold.(i) then Image.set_separate_cold u cold.(i)
      else u)
    sctx.units

let index_in names name =
  let rec go i = if names.(i) = name then i else go (i + 1) in
  go 0

(* [Strategy.at_offsets]'s address for the unit after [cursor]: dense
   ([off < 0]) or at set offset [off] plus whole reference periods *)
let addr_at cursor off =
  if off < 0 then (cursor + block_bytes - 1) / block_bytes * block_bytes
  else begin
    let candidate =
      (cursor / icache_ref * icache_ref) + (off mod nsets_ref * block_bytes)
    in
    (if candidate >= cursor then candidate else candidate + icache_ref)
    + (off / nsets_ref * icache_ref)
  end

(* The shared cold region as [Image.build] lays it out: from the first
   block boundary 4 KB past the end of the code, the outlined cold blocks
   of each deferred unit in placement order.  [cbase.(u)] is the unit's
   chunk start less its hot bytes, so a cold-block event sits at
   [cbase.(u) + off].  Returns the region's end. *)
let place_cold ~size ~hot cbase cold perm code_end =
  let c = ref ((code_end + 4096 + 31) / 32 * 32) in
  Array.iter
    (fun u ->
      if cold.(u) then begin
        cbase.(u) <- !c - hot.(u);
        c := !c + size.(u) - hot.(u)
      end)
    perm;
  !c

(* The unit and cold-chunk bases of an explicit placement, whose units
   keep the toggles [cold]. *)
let place names ~size ~hot ubase cbase cold placement =
  let perm =
    Array.of_list
      (List.map
         (fun (u, a) ->
           let i = index_in names (Image.unit_name u) in
           ubase.(i) <- a;
           i)
         placement)
  in
  let code_end =
    List.fold_left (fun m (u, a) -> max m (a + Image.size_bytes u)) 0 placement
  in
  ignore (place_cold ~size ~hot cbase cold perm code_end)

(* The full path: decode the genome with [Strategy.at_offsets], build its
   image and retarget the base trace to it.  Only [check] takes it. *)
let retarget_image sctx img =
  Trace.map_pcs
    (Image.pc_map sctx.base.Engine.client_image img)
    sctx.base.Engine.trace

let retarget sctx g =
  let units = apply_cold sctx g.cold in
  retarget_image sctx
    (Image.build
       (Strategy.at_offsets ~base:code_base ~icache_bytes:icache_ref
          ~block_bytes
          (Array.to_list (Array.mapi (fun k u -> (units.(u), g.offs.(k))) g.perm))))

(* The first pass of [icharge]: the tag array a warmup replay of [lines]
   leaves, from empty.  Returns the last miss, which carries over. *)
let warm_tags tags lines =
  Array.fill tags 0 (Array.length tags) (-1);
  let mask = Array.length tags - 1 in
  let last = ref min_int in
  for r = 0 to Array.length lines - 1 do
    let line = Array.unsafe_get lines r in
    if Array.unsafe_get tags (line land mask) <> line then begin
      Array.unsafe_set tags (line land mask) line;
      last := line
    end
  done;
  !last

(* The i-side stall of the measured pass of a warmup-1 replay of the
   fetched [lines], given that each one stays in the b-cache: a miss on
   the line after the previous miss streams in at [b_seq_cycles], any
   other miss pays [b_hit_cycles] and its prefetch is free.  Two passes
   over a direct-mapped tag array ([tags], one per i-cache set); only the
   second is charged, and the last miss carries over as in the replay. *)
let icharge p tags lines =
  let mask = Array.length tags - 1 in
  let last = ref (warm_tags tags lines) and seq = ref 0 and other = ref 0 in
  for r = 0 to Array.length lines - 1 do
    let line = Array.unsafe_get lines r in
    if Array.unsafe_get tags (line land mask) <> line then begin
      Array.unsafe_set tags (line land mask) line;
      if line = !last + 1 then incr seq else incr other;
      last := line
    end
  done;
  (p.Params.b_seq_cycles * !seq) + (p.Params.b_hit_cycles * !other)

let make_sctx stack =
  let config = Config.make Config.Clo in
  let layout = Config.layout_of config.Config.version in
  (* the search reads only the client image, the first measured
     roundtrip's trace and its steady replay, which one round gives *)
  let base = Engine.run (Engine.Spec.make ~rounds:1 ~stack ~config ~layout ()) in
  let units_l, order = Engine.client_units config stack in
  let units = Array.of_list units_l in
  let nu = Array.length units in
  let unit_names = Array.map Image.unit_name units in
  let base_cold = Array.map Image.unit_separate_cold units in
  let with_cold b u =
    if Image.unit_outlined u then Image.set_separate_cold u b else u
  in
  let size = Array.map (fun u -> Image.size_bytes (with_cold false u)) units in
  let hot = Array.map (fun u -> Image.size_bytes (with_cold true u)) units in
  let toggleable =
    Array.mapi (fun i u -> Image.unit_outlined u && size.(i) > hot.(i)) units
  in
  let toggles =
    Array.of_list
      (List.filteri (fun i _ -> toggleable.(i))
         (List.init nu (fun i -> i)))
  in
  let unit_of_func = Hashtbl.create 64 in
  Array.iteri
    (fun i u ->
      List.iter
        (fun f -> Hashtbl.replace unit_of_func f.Layout.Func.name i)
        (Image.unit_funcs u))
    units;
  (* the unit table: invert the placement the base image was built from.
     Each unit's placed bytes and its cold chunk (empty unless deferred)
     is a span [(start, stop, unit, start of the unit's offsets)]. *)
  let ubase = Array.make nu 0 and cbase = Array.make nu 0 in
  place unit_names ~size ~hot ubase cbase base_cold
    (Engine.placement layout ~order units_l);
  let spans =
    List.concat
      (List.init nu (fun u ->
           let placed = if base_cold.(u) then hot.(u) else size.(u) in
           [ (ubase.(u), ubase.(u) + placed, u, ubase.(u));
             (cbase.(u) + placed, cbase.(u) + size.(u), u, cbase.(u)) ]))
    |> List.filter (fun (a, b, _, _) -> a < b)
    |> List.sort compare |> Array.of_list
  in
  let span_of pc =
    (* the last span starting at or below [pc] *)
    let lo = ref 0 and hi = ref (Array.length spans - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      let a, _, _, _ = spans.(mid) in
      if a <= pc then lo := mid else hi := mid - 1
    done;
    let ((a, b, _, _) as span) = spans.(!lo) in
    if pc < a || pc >= b then
      invalid_arg
        (Printf.sprintf "Layoutsearch: pc 0x%x outside the base placement" pc);
    span
  in
  let trace = base.Engine.trace in
  let len = Trace.length trace in
  let ev_unit = Array.make len 0 and ev_off = Array.make len 0 in
  let run_unit = Array.make len 0 and run_off = Array.make len 0 in
  let runs = ref 0 in
  for i = 0 to len - 1 do
    let pc = Trace.pc_at trace i in
    let _, _, u, origin = span_of pc in
    let off = pc - origin in
    ev_unit.(i) <- u;
    ev_off.(i) <- off;
    let r = !runs - 1 in
    if
      not
        (r >= 0 && run_unit.(r) = u
        && run_off.(r) / block_bytes = off / block_bytes
        && run_off.(r) < hot.(u) && off < hot.(u))
    then begin
      run_unit.(!runs) <- u;
      run_off.(!runs) <- off;
      incr runs
    end
  done;
  (* each line's owner, as [Obs.Attrib] names an eviction victim: the
     function of the first slot in address order with a pc on it (a
     slot's pcs leave no line between its first and last uncovered) *)
  let img = base.Engine.client_image in
  let lo = code_base / block_bytes in
  let owner =
    Array.make ((Image.end_addr img + block_bytes - 1) / block_bytes - lo) "(unknown)"
  in
  let next = ref lo in
  List.iter
    (fun (sl : Image.slot) ->
      let pcs = sl.Image.pcs in
      let last = pcs.(Array.length pcs - 1) / block_bytes in
      for l = max !next (pcs.(0) / block_bytes) to last do
        owner.(l - lo) <- sl.Image.func
      done;
      next := max !next (last + 1))
    (Image.slots img);
  (* the data's b-cache sets, as a distance from the first code line *)
  let p = Params.default in
  let bsets = p.Params.bcache_bytes / block_bytes in
  let room = ref bsets in
  for i = 0 to len - 1 do
    if Trace.kind_at trace i <> Trace.kind_none then
      room :=
        min !room (((Trace.addr_at trace i / block_bytes) - lo) land (bsets - 1))
  done;
  (* the data side's stall: the base run's own steady replay (same trace,
     [Params.default], past the fixpoint) less its i-side *)
  let lines = Array.init len (fun i -> Trace.pc_at trace i / block_bytes) in
  let fits = Array.for_all (fun l -> l >= lo && l + 1 - lo < !room) lines in
  let steady = base.Engine.steady in
  let dside =
    steady.Perf.stats.Memsys.stall_cycles
    -. float_of_int
         (icharge p (Array.make (p.Params.icache_bytes / block_bytes) 0) lines)
  in
  { config; stack; base; units; order; nu; unit_names; base_cold;
    toggleable; toggles; unit_of_func; size; hot; ev_unit; ev_off;
    run_unit = Array.sub run_unit 0 !runs; run_off = Array.sub run_off 0 !runs;
    lines; owner; room = (if fits then !room else 0); dside;
    instr_cycles = steady.Perf.instr_cycles }

(* ----- scorer --------------------------------------------------------------- *)

(* One geometry's scorer, with its own scratch: unit bases, run-head
   lines, the i-cache tag array, and for placements the tag array does
   not cover, event pcs and a memory hierarchy. *)
type cctx = {
  s : sctx;
  params : Params.t;
  ubase : int array;
  cbase : int array;  (** cold chunk start less the unit's [hot] *)
  heads : int array;
  tags : int array;
  pcs : int array;
  scratch : Memsys.t;
}

let geometry_params kb =
  if kb <= 0 || kb land (kb - 1) <> 0 then
    invalid_arg
      (Printf.sprintf
         "Layoutsearch: an i-cache of %d KB is not a positive power of two" kb);
  { Params.default with Params.icache_bytes = kb * 1024 }

let make_cctx s kb =
  let params = geometry_params kb in
  { s; params;
    ubase = Array.make s.nu 0; cbase = Array.make s.nu 0;
    heads = Array.make (Array.length s.run_unit) 0;
    tags = Array.make (params.Params.icache_bytes / block_bytes) 0;
    pcs = Array.make (Array.length s.ev_unit) 0;
    scratch = Memsys.create params }

(* [Perf.steady ~warmup:1] of the base trace with every unit at [ubase]
   and every deferred cold chunk at [cbase]: each event's pc follows its
   unit, and the replay runs on the cell's hierarchy, cleared to the state
   of a fresh one.  The deterministic replay reaches its periodic cache
   fixpoint after a single pass, so this equals the canonical
   [Perf.steady] (warmup 3) bit for bit — [check] and the tests
   re-simulate through that path and fail loudly if a future trace ever
   breaks the fixpoint. *)
let replay_us cc cold =
  let s = cc.s and m = cc.scratch in
  let trace = s.base.Engine.trace in
  for i = 0 to Array.length cc.pcs - 1 do
    let u = s.ev_unit.(i) and off = s.ev_off.(i) in
    cc.pcs.(i) <-
      (if off >= s.hot.(u) && cold.(u) then cc.cbase.(u) else cc.ubase.(u)) + off
  done;
  Memsys.clear m;
  for pass = 0 to 1 do
    if pass = 1 then Memsys.reset_stats m;
    for i = 0 to Array.length cc.pcs - 1 do
      Memsys.access_acc m ~pc:cc.pcs.(i) ~kind:(Trace.kind_at trace i)
        ~addr:(Trace.addr_at trace i)
    done
  done;
  Params.cycles_to_us cc.params
    (s.instr_cycles +. (Memsys.stats m).Memsys.stall_cycles)

(* A named placement's score: its units keep the engine's toggles. *)
let placement_us cc placement =
  let s = cc.s in
  place s.unit_names ~size:s.size ~hot:s.hot cc.ubase cc.cbase s.base_cold
    placement;
  replay_us cc s.base_cold

(* Decode the unit bases and the shared cold region the way
   [Strategy.at_offsets] and [Image.build] place them.  While the code,
   with the line its last miss prefetches, stays below the data's
   b-cache sets, no b-cache line is evicted across the two sides, so the
   steady time is [instr_cycles + dside + icharge] exactly: every stall
   term is an integer, so the float sums agree in any order.  Other
   genomes are replayed. *)
let score_genome cc g =
  let s = cc.s in
  let cursor = ref code_base in
  for k = 0 to s.nu - 1 do
    let u = g.perm.(k) in
    cc.ubase.(u) <- addr_at !cursor g.offs.(k);
    cursor := cc.ubase.(u) + if g.cold.(u) then s.hot.(u) else s.size.(u)
  done;
  let cold = place_cold ~size:s.size ~hot:s.hot cc.cbase g.cold g.perm !cursor in
  if (cold / block_bytes) + 1 - (code_base / block_bytes) >= s.room then
    replay_us cc g.cold
  else begin
    for r = 0 to Array.length cc.heads - 1 do
      let u = s.run_unit.(r) and off = s.run_off.(r) in
      cc.heads.(r) <-
        ((if off >= s.hot.(u) && g.cold.(u) then cc.cbase.(u) else cc.ubase.(u))
         + off)
        / block_bytes
    done;
    let i_stall = icharge cc.params cc.tags cc.heads in
    Params.cycles_to_us cc.params
      (s.instr_cycles +. (s.dside +. float_of_int i_stall))
  end

(* The base layout's hottest i-cache conflicts at this geometry, as
   [Obs.Attrib.top_conflicts ~k:16] of [Obs.Attrib.profile] names them.
   Past the warmup every miss is a replacement miss, so the pairs are
   [icharge]'s second-pass misses over the base image's lines: the victim
   is the line the set held, the evictor the event's function. *)
let conflicts cc =
  let s = cc.s and tags = cc.tags in
  let trace = s.base.Engine.trace in
  let lo = code_base / block_bytes in
  let name_of line =
    if line >= lo && line - lo < Array.length s.owner then s.owner.(line - lo)
    else "(unknown)"
  in
  let counts = Hashtbl.create 64 in
  ignore (warm_tags tags s.lines);
  let mask = Array.length tags - 1 in
  for i = 0 to Array.length s.lines - 1 do
    let line = s.lines.(i) in
    let victim = tags.(line land mask) in
    if victim <> line then begin
      tags.(line land mask) <- line;
      let fid = Trace.fid_at trace i in
      let key =
        (name_of victim, if fid >= 0 then Trace.func_name trace fid else name_of line)
      in
      Hashtbl.replace counts key
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
    end
  done;
  Hashtbl.fold
    (fun (victim, evictor) count l -> { Obs.Attrib.victim; evictor; count } :: l)
    counts []
  |> Obs.Attrib.hottest ~k:16

let score stack icache_kb genomes =
  let cc = make_cctx (make_sctx stack) icache_kb in
  List.map (score_genome cc) genomes

let guidance stack icache_kb = conflicts (make_cctx (make_sctx stack) icache_kb)

let events stack =
  let s = make_sctx stack in
  Array.map2 (fun u off -> (u, off)) s.ev_unit s.ev_off

(* ----- search state --------------------------------------------------------- *)

type state = {
  cc : cctx;
  budget : int;
  pairs : (int * int * int) array;  (* (victim unit, evictor unit, count) *)
  pair_total : int;
  memo : float Memo.t;
  mutable evals : int;
  mutable eval_s : float;
  mutable best : (genome * float) option;
  mutable traj : point list;  (* newest first *)
}

let note_best st g us =
  match st.best with
  | Some (_, b) when b <= us -> ()
  | _ ->
    st.best <- Some (g, us);
    st.traj <- { eval = st.evals; us } :: st.traj

(* Score a batch in submission order.  Memo hits are free; fresh genomes
   consume budget. *)
let eval_batch st genomes =
  let fresh = ref [] and n_fresh = ref 0 in
  let seen = Memo.create 16 in
  List.iter
    (fun g ->
      if
        (not (Memo.mem st.memo g))
        && (not (Memo.mem seen g))
        && st.evals + !n_fresh < st.budget
      then begin
        Memo.add seen g ();
        incr n_fresh;
        fresh := g :: !fresh
      end)
    genomes;
  let fresh = List.rev !fresh in
  if fresh <> [] then begin
    let t0 = Unix.gettimeofday () in
    let scores = List.map (score_genome st.cc) fresh in
    st.eval_s <- st.eval_s +. (Unix.gettimeofday () -. t0);
    List.iter2
      (fun g us ->
        st.evals <- st.evals + 1;
        Memo.replace st.memo g us;
        note_best st g us)
      fresh scores
  end;
  List.map (Memo.find_opt st.memo) genomes

(* ----- moves ---------------------------------------------------------------- *)

let pos_of g u =
  let rec go k = if g.perm.(k) = u then k else go (k + 1) in
  go 0

let pick_pair st rng =
  if Array.length st.pairs = 0 || st.pair_total <= 0 then None
  else begin
    let r = Rng.int rng st.pair_total in
    let rec go i acc =
      let ((_, _, c) as p) = st.pairs.(i) in
      if r < acc + c || i = Array.length st.pairs - 1 then p
      else go (i + 1) (acc + c)
    in
    Some (go 0 0)
  end

(* One Attrib-guided mutation.  The conflict matrix names the
   (victim, evictor) pair most worth separating; moves either re-seat the
   victim (set-offset shift), exchange the two units, pull the victim
   dense behind the evictor (adjacent code cannot conflict), drop an
   offset back to dense packing, or flip a clone toggle. *)
let propose st rng cur =
  let s = st.cc.s in
  let g = copy_genome cur in
  let u, v =
    match pick_pair st rng with
    | Some (vi, ev, _) -> if Rng.bool rng then (vi, ev) else (ev, vi)
    | None ->
      let a = Rng.int rng s.nu in
      let b = (a + 1 + Rng.int rng (s.nu - 1)) mod s.nu in
      (a, b)
  in
  let kind = Rng.int rng 100 in
  if kind < 30 then g.offs.(pos_of g u) <- Rng.int rng nsets_ref
  else if kind < 55 then begin
    let ku = pos_of g u and kv = pos_of g v in
    let pu = g.perm.(ku) in
    g.perm.(ku) <- g.perm.(kv);
    g.perm.(kv) <- pu
  end
  else if kind < 75 then begin
    let ku = pos_of g u and kv = pos_of g v in
    if ku < kv then begin
      let pu = g.perm.(ku) in
      Array.blit g.perm (ku + 1) g.perm ku (kv - ku);
      Array.blit g.offs (ku + 1) g.offs ku (kv - ku);
      g.perm.(kv) <- pu;
      g.offs.(kv) <- -1
    end
    else if ku > kv then begin
      let pu = g.perm.(ku) in
      Array.blit g.perm (kv + 1) g.perm (kv + 2) (ku - kv - 1);
      Array.blit g.offs (kv + 1) g.offs (kv + 2) (ku - kv - 1);
      g.perm.(kv + 1) <- pu;
      g.offs.(kv + 1) <- -1
    end
  end
  else if kind < 85 then g.offs.(pos_of g u) <- -1
  else begin
    let cand =
      if s.toggleable.(u) then Some u
      else if s.toggleable.(v) then Some v
      else if Array.length s.toggles > 0 then
        Some s.toggles.(Rng.int rng (Array.length s.toggles))
      else None
    in
    match cand with
    | Some w -> g.cold.(w) <- not g.cold.(w)
    | None -> g.offs.(pos_of g u) <- Rng.int rng nsets_ref
  end;
  g

(* ----- named layouts and seeds ---------------------------------------------- *)

let genome_of_placement sctx placement =
  (* replicate the decoder's cursor so each offset can carry the number
     of whole reference periods the placement deliberately skips *)
  let cursor = ref code_base in
  let offs =
    List.map
      (fun (u, a) ->
        let set = a / block_bytes mod nsets_ref in
        let minimal = addr_at !cursor set in
        cursor := a + Image.size_bytes u;
        set + ((a - minimal) / icache_ref * nsets_ref))
      placement
  in
  { perm =
      Array.of_list
        (List.map (fun (u, _) -> index_in sctx.unit_names (Image.unit_name u))
           placement);
    offs = Array.of_list offs;
    cold = Array.copy sctx.base_cold }

(* A genome encodes a named placement faithfully iff decoding it lands
   every unit at the original address — true whenever consecutive
   placements advance by less than one reference i-cache period, which
   holds for every strategy except pessimal (whose b-cache multiples are
   out of genome range by design). *)
let genome_reproduces sctx g placement =
  let decoded =
    Strategy.at_offsets ~base:code_base ~icache_bytes:icache_ref ~block_bytes
      (Array.to_list
         (Array.mapi (fun k u -> (sctx.units.(u), g.offs.(k))) g.perm))
  in
  List.for_all2
    (fun (u1, a1) (u2, a2) ->
      Image.unit_name u1 = Image.unit_name u2 && a1 = a2)
    decoded placement

(* ----- per-cell search ------------------------------------------------------ *)

let stack_seed = function Engine.Tcpip -> 0 | Engine.Rpc -> 1

let search_cell ~budget ~seeds sctx kb =
  let cc = make_cctx sctx kb in
  (* guidance: the conflict matrix of the base layout at this geometry *)
  let pairs =
    conflicts cc
    |> List.filter_map (fun (c : Obs.Attrib.conflict) ->
           match
             ( Hashtbl.find_opt sctx.unit_of_func c.Obs.Attrib.victim,
               Hashtbl.find_opt sctx.unit_of_func c.Obs.Attrib.evictor )
           with
           | Some a, Some b -> Some (a, b, c.Obs.Attrib.count)
           | _ -> None)
    |> Array.of_list
  in
  let st =
    { cc; budget; pairs;
      pair_total = Array.fold_left (fun a (_, _, c) -> a + c) 0 pairs;
      memo = Memo.create 1024; evals = 0; eval_s = 0.0; best = None;
      traj = [] }
  in
  (* Named layouts: the four representable ones score through their seed
     genome (one batch), pessimal, whose units sit a b-cache size apart,
     through a replay of its placement.  Seed scores land in the search
     memo, so best-found can never be worse than the best hand-picked
     layout. *)
  let seed_info =
    List.map
      (fun layout ->
        if layout = Config.Pessimal then (layout, None)
        else begin
          let placement =
            Engine.placement layout ~order:sctx.order (Array.to_list sctx.units)
          in
          let g = genome_of_placement sctx placement in
          if genome_reproduces sctx g placement then (layout, Some g)
          else (layout, None)
        end)
      Config.all_layouts
  in
  let seed_genomes = List.filter_map snd seed_info in
  ignore (eval_batch st seed_genomes);
  let named =
    List.map
      (fun (layout, g) ->
        match g with
        | Some g -> (layout, Memo.find st.memo g)
        | None ->
          let t0 = Unix.gettimeofday () in
          let us =
            placement_us cc
              (Engine.placement layout ~order:sctx.order (Array.to_list sctx.units))
          in
          st.eval_s <- st.eval_s +. (Unix.gettimeofday () -. t0);
          st.evals <- st.evals + 1;
          (layout, us))
      seed_info
  in
  let seeded = List.filter_map (fun (l, g) -> Option.map (fun _ -> l) g) seed_info in
  (* start from the best seed *)
  let start, start_us =
    List.fold_left
      (fun acc g ->
        let us = Memo.find st.memo g in
        match acc with
        | Some (_, b) when b <= us -> acc
        | _ -> Some (g, us))
      None seed_genomes
    |> function
    | Some (g, us) -> (g, us)
    | None ->
      (* no seedable layout decoded (defensively unreachable): start from
         the canonical dense order *)
      let g =
        { perm = Array.init sctx.nu (fun i -> i);
          offs = Array.make sctx.nu (-1);
          cold = Array.copy sctx.base_cold }
      in
      (match eval_batch st [ g ] with
      | [ Some us ] -> (g, us)
      | _ -> (g, infinity))
  in
  let rng = Rng.create (42 + (stack_seed sctx.stack * 7919) + (kb * 101)) in
  (* phase 1: greedy hill-climb *)
  let batch = 16 in
  let cur = ref start and cur_us = ref start_us in
  let greedy_limit = st.evals + ((budget - st.evals) / 3) in
  let stale = ref 0 in
  while st.evals < greedy_limit && !stale < 3 do
    let before = st.evals in
    let props = List.init batch (fun _ -> propose st rng !cur) in
    let scores = eval_batch st props in
    let best_prop =
      List.fold_left2
        (fun acc g sc ->
          match (sc, acc) with
          | Some us, Some (_, b) when us < b -> Some (g, us)
          | Some us, None -> Some (g, us)
          | _ -> acc)
        None props scores
    in
    (match best_prop with
    | Some (g, us) when us < !cur_us ->
      cur := g;
      cur_us := us;
      stale := 0
    | _ -> incr stale);
    if st.evals = before then stale := 3
  done;
  let greedy_us = match st.best with Some (_, us) -> us | None -> start_us in
  (* phase 2: seeded simulated annealing with restarts *)
  let sa_start, sa_start_us =
    match st.best with Some (g, us) -> (g, us) | None -> (start, start_us)
  in
  let per_restart = if seeds <= 0 then 0 else (budget - st.evals) / seeds in
  for r = 0 to seeds - 1 do
    let rng_r =
      Rng.create
        ((1000003 * (r + 1)) + 42 + (stack_seed sctx.stack * 7919) + (kb * 101))
    in
    let cur = ref sa_start and cur_us = ref sa_start_us in
    let temp = ref (Float.max 0.02 (sa_start_us *. 0.01)) in
    let limit = min budget (st.evals + per_restart) in
    let dry = ref 0 in
    while st.evals < limit && !dry < 3 do
      let before = st.evals in
      let props = List.init 12 (fun _ -> propose st rng_r !cur) in
      let scores = eval_batch st props in
      List.iter2
        (fun g sc ->
          match sc with
          | Some us ->
            let delta = us -. !cur_us in
            if delta < 0.0 || Rng.float rng_r 1.0 < exp (-.delta /. !temp)
            then begin
              cur := g;
              cur_us := us
            end
          | None -> ())
        props scores;
      temp := Float.max 0.005 (!temp *. 0.93);
      if st.evals = before then incr dry else dry := 0
    done
  done;
  let best_g, best_us =
    match st.best with Some (g, us) -> (g, us) | None -> (start, start_us)
  in
  { stack = sctx.stack; icache_kb = kb; evals = st.evals; eval_s = st.eval_s;
    named; seeded; best = best_g; best_us;
    best_order =
      List.map (fun u -> sctx.unit_names.(u)) (Array.to_list best_g.perm);
    greedy_us;
    trajectory = List.rev st.traj }

(* ----- entry points --------------------------------------------------------- *)

let run ?(budget = 600) ?(seeds = 2) ?(geometries = all_geometries)
    ?(stacks = [ Engine.Tcpip; Engine.Rpc ]) ?(jobs = 1) () =
  let named = List.length Config.all_layouts in
  if budget < named then
    invalid_arg
      (Printf.sprintf
         "Layoutsearch.run: a budget of %d is below the %d named layouts"
         budget named);
  List.iter (fun kb -> ignore (geometry_params kb)) geometries;
  let t0 = Unix.gettimeofday () in
  (* one task per stack, each with its own context and scratch *)
  let cells =
    Dpool.run ~jobs
      (List.map
         (fun stack () ->
           let sctx = make_sctx stack in
           List.map (search_cell ~budget ~seeds sctx) geometries)
         stacks)
    |> List.concat
  in
  { cells; budget; seeds; jobs; wall_s = Unix.gettimeofday () -. t0 }

let digest (t : t) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "layoutsearch:1|budget=%d|seeds=%d" t.budget t.seeds;
  List.iter
    (fun (c : cell) ->
      Printf.bprintf b "|%s:%dkb:e%d" (Engine.stack_name c.stack) c.icache_kb
        c.evals;
      List.iter
        (fun (l, us) -> Printf.bprintf b ";%s=%h" (Config.layout_name l) us)
        c.named;
      Printf.bprintf b ";seeded=%s"
        (String.concat "," (List.map Config.layout_name c.seeded));
      Printf.bprintf b ";best=%s=%h;greedy=%h" (genome_key c.best) c.best_us
        c.greedy_us;
      List.iter (fun p -> Printf.bprintf b ";t%d=%h" p.eval p.us) c.trajectory)
    t.cells;
  Digest.to_hex (Digest.string (Buffer.contents b))

let check (t : t) =
  let sctxs = Hashtbl.create 2 in
  let ctx_for stack =
    match Hashtbl.find_opt sctxs stack with
    | Some s -> s
    | None ->
      let s = make_sctx stack in
      Hashtbl.add sctxs stack s;
      s
  in
  let problem = ref None in
  let fail fmt =
    Printf.ksprintf (fun m -> if !problem = None then problem := Some m) fmt
  in
  List.iter
    (fun (c : cell) ->
      if !problem = None then begin
        let s = ctx_for c.stack and p = geometry_params c.icache_kb in
        let where =
          Printf.sprintf "%s %d KB" (Engine.stack_name c.stack) c.icache_kb
        in
        let full what us trace =
          let want = (Perf.steady p trace).Perf.time_us in
          if us <> want then
            fail "%s: scorer %.9f us but full simulation of %s gives %.9f us"
              where us what want
        in
        full "the decoded best layout" c.best_us (retarget s c.best);
        List.iter
          (fun (l, us) ->
            full
              (Printf.sprintf "the engine's %s image" (Config.layout_name l))
              us
              (retarget_image s (Engine.layout_for s.config s.stack ~layout:l ())))
          c.named;
        if c.seeded <> [] then begin
          let bn =
            List.fold_left
              (fun acc (l, us) ->
                if List.mem l c.seeded then Float.min acc us else acc)
              infinity c.named
          in
          if c.best_us > bn then
            fail "%s: best-found %.9f us worse than seeded named best %.9f us"
              where c.best_us bn
        end
      end)
    t.cells;
  match !problem with Some m -> Error m | None -> Ok ()

let table (t : t) =
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "Automated layout search (budget %d evals/cell, %d restarts; \
            %.0f candidates/s)"
           t.budget t.seeds (candidates_per_sec t))
      ~headers:
        [ "Stack"; "i-cache"; "best named"; "named [us]"; "search [us]";
          "delta [us]"; "evals"; "cand/s" ]
  in
  let f2 = Table.cell_f ~digits:2 in
  List.iter
    (fun (c : cell) ->
      let bl, bus = best_named c in
      Table.add_row tbl
        [ Engine.stack_name c.stack;
          Printf.sprintf "%d KB" c.icache_kb;
          Config.layout_name bl;
          f2 bus;
          f2 c.best_us;
          f2 (c.best_us -. bus);
          string_of_int c.evals;
          (if c.eval_s > 0.0 then
             Printf.sprintf "%.0f" (float_of_int c.evals /. c.eval_s)
           else "-") ])
    t.cells;
  tbl

let render t = Table.render (table t)

let to_json (t : t) =
  let open Obs.Json.Out in
  let layout l = Str (Config.layout_name l) and micro x = Fixed (6, x) in
  let cell_json (c : cell) =
    let rate =
      if c.eval_s > 0.0 then float_of_int c.evals /. c.eval_s else 0.0
    in
    Obj
      [ ("stack", Str (Engine.stack_name c.stack));
        ("icache_kb", Int c.icache_kb); ("evals", Int c.evals);
        ("eval_s", Fixed (3, c.eval_s));
        ("candidates_per_sec", Fixed (1, rate));
        ( "named",
          Arr
            (List.map
               (fun (l, us) ->
                 Obj [ ("layout", layout l); ("steady_us", micro us) ])
               c.named) );
        ("seeded", Arr (List.map layout c.seeded));
        ("best_us", micro c.best_us); ("greedy_us", micro c.greedy_us);
        ("best_order", Arr (List.map (fun n -> Str n) c.best_order));
        ( "best_offsets",
          Arr (Array.to_list (Array.map (fun o -> Int o) c.best.offs)) );
        ( "best_cold",
          Arr (Array.to_list (Array.map (fun v -> Bool v) c.best.cold)) );
        ( "trajectory",
          Arr
            (List.map
               (fun p -> Obj [ ("eval", Int p.eval); ("us", micro p.us) ])
               c.trajectory) ) ]
  in
  to_string Compact
    (document
       [ ("budget", Int t.budget); ("seeds", Int t.seeds); ("jobs", Int t.jobs);
         ("wall_s", Fixed (3, t.wall_s));
         ("candidates_per_sec", Fixed (1, candidates_per_sec t));
         ("digest", Str (digest t));
         ("cells", Arr (List.map cell_json t.cells)) ])

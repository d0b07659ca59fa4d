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

let ib = Machine.Instr.bytes

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

(* ----- per-stack context ---------------------------------------------------- *)

(* Everything needed to turn a genome into the pc column of the retargeted
   trace by pure arithmetic, for one clone-toggle vector.  Under a fixed
   vector every placement is a translation of each unit's slots plus a
   prefix-sum relocation of the shared cold region, so one template image
   per vector replaces an [Image.build] per candidate — the difference
   between ~600 and >1000 candidates/sec. *)
type template = {
  sizes : int array;  (** unit footprint at its base address *)
  cold_sizes : int array;  (** unit's chunk of the shared cold region *)
  last_end : int array;  (** (last slot byte end) - unit base *)
  ev_unit : int array;  (** per trace event: owning unit *)
  ev_cold : Bytes.t;  (** per trace event: 1 if in the cold region *)
  ev_off : int array;  (** per trace event: offset from the unit's anchor *)
}

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
  templates : (string, template) Hashtbl.t;  (** keyed by cold vector *)
}

let cold_key cold =
  String.init (Array.length cold) (fun i -> if cold.(i) then '1' else '0')

let apply_cold sctx cold =
  Array.mapi
    (fun i u ->
      if cold.(i) <> sctx.base_cold.(i) then Image.set_separate_cold u cold.(i)
      else u)
    sctx.units

let build_template sctx cold =
  let t_units = apply_cold sctx cold in
  let placement =
    Strategy.at_offsets ~base:code_base ~icache_bytes:icache_ref ~block_bytes
      (Array.to_list (Array.map (fun u -> (u, -1)) t_units))
  in
  let img = Image.build placement in
  let bases = Array.of_list (List.map snd placement) in
  let sizes = Array.map Image.size_bytes t_units in
  let cold_sizes = Array.map Image.cold_size_bytes t_units in
  let nu = sctx.nu in
  let tpre = Array.make nu 0 in
  let acc = ref 0 in
  for i = 0 to nu - 1 do
    tpre.(i) <- !acc;
    acc := !acc + cold_sizes.(i)
  done;
  let cold_start =
    List.fold_left
      (fun acc (n, s, _) -> if n = "<cold-region>" then s else acc)
      max_int (Image.regions img)
  in
  let last_end = Array.make nu 0 in
  List.iter
    (fun (s : Image.slot) ->
      if s.Image.addr < cold_start then begin
        let u = Hashtbl.find sctx.unit_of_func s.Image.func in
        let last = s.Image.pcs.(Array.length s.Image.pcs - 1) in
        if last + ib - bases.(u) > last_end.(u) then
          last_end.(u) <- last + ib - bases.(u)
      end)
    (Image.slots img);
  let trace = sctx.base.Engine.trace in
  let len = Trace.length trace in
  let b2t = Image.pc_map sctx.base.Engine.client_image img in
  let ev_unit = Array.make len 0 in
  let ev_cold = Bytes.make len '\000' in
  let ev_off = Array.make len 0 in
  for i = 0 to len - 1 do
    let tpc = b2t (Trace.pc_at trace i) in
    if tpc >= cold_start then begin
      let rec findc u =
        if u = nu - 1 || cold_start + tpre.(u + 1) > tpc then u
        else findc (u + 1)
      in
      let u = findc 0 in
      ev_unit.(i) <- u;
      Bytes.set ev_cold i '\001';
      ev_off.(i) <- tpc - cold_start - tpre.(u)
    end
    else begin
      (* dense canonical placement: bases increase, so the first unit
         whose extent reaches past the pc owns it *)
      let rec findu u =
        if u = nu - 1 || tpc < bases.(u) + sizes.(u) then u
        else findu (u + 1)
      in
      let u = findu 0 in
      ev_unit.(i) <- u;
      ev_off.(i) <- tpc - bases.(u)
    end
  done;
  { sizes; cold_sizes; last_end; ev_unit; ev_cold; ev_off }

let template_for sctx cold =
  let k = cold_key cold in
  match Hashtbl.find_opt sctx.templates k with
  | Some t -> t
  | None ->
    let t = build_template sctx cold in
    Hashtbl.add sctx.templates k t;
    t

let make_sctx stack =
  let config = Config.make Config.Clo in
  let base_layout = Config.layout_of config.Config.version in
  let base =
    Engine.run (Engine.Spec.make ~stack ~config ~layout:base_layout ())
  in
  let units_l, order = Engine.client_units config stack in
  let units = Array.of_list units_l in
  let nu = Array.length units in
  let unit_names = Array.map Image.unit_name units in
  let base_cold = Array.map Image.unit_separate_cold units in
  let toggleable =
    Array.map
      (fun u ->
        Image.unit_outlined u
        && Image.cold_size_bytes (Image.set_separate_cold u true) > 0)
      units
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
  { config; stack; base; units; order; nu; unit_names; base_cold; toggleable;
    toggles; unit_of_func; templates = Hashtbl.create 8 }

(* ----- scorer --------------------------------------------------------------- *)

type cctx = {
  s : sctx;
  icache_kb : int;
  params : Params.t;
  issue_cycles : float;
  instr_cycles : float;
  pairs : (int * int * int) array;  (* (victim unit, evictor unit, count) *)
  pair_total : int;
}

(* Per-domain scratch hierarchy: [Memsys.clear] per candidate instead of
   [Memsys.create].  Keyed by params so a geometry switch reallocates. *)
let scratch_slot : (Params.t * Memsys.t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let scratch_for p =
  let r = Domain.DLS.get scratch_slot in
  match !r with
  | Some (p', m) when p' = p -> m
  | _ ->
    let m = Memsys.create p in
    r := Some (p, m);
    m

(* Per-domain candidate pc column, refilled by every [candidate_pcs] on
   the domain instead of allocating a trace-length array per candidate.
   Reuse is safe because [score_genome] lets only the float score escape:
   the remapped trace adopting the column is dead before the next
   candidate refills it.  Keyed by length so a trace of another
   stack reallocates. *)
let pcs_slot : int array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let pcs_buffer len =
  let r = Domain.DLS.get pcs_slot in
  if Array.length !r <> len then r := Array.make len 0;
  !r

(* Decode a genome to the candidate's pc column: place units with the
   [Strategy.at_offsets] cursor arithmetic, derive the shared cold
   region's start the way [Image.build] does, then anchor every event's
   precomputed (unit, offset).  The column is this domain's
   [pcs_buffer], valid until the next call on the domain. *)
let candidate_pcs cc tmpl g =
  let nu = cc.s.nu in
  let ubase = Array.make nu 0 and cbase = Array.make nu 0 in
  let cursor = ref code_base and max_addr = ref 0 in
  for k = 0 to nu - 1 do
    let u = g.perm.(k) in
    let off = g.offs.(k) in
    let addr =
      if off < 0 then (!cursor + block_bytes - 1) / block_bytes * block_bytes
      else begin
        let offset_bytes = off mod nsets_ref * block_bytes in
        let candidate = (!cursor / icache_ref * icache_ref) + offset_bytes in
        let minimal =
          if candidate >= !cursor then candidate else candidate + icache_ref
        in
        minimal + (off / nsets_ref * icache_ref)
      end
    in
    ubase.(u) <- addr;
    cursor := addr + tmpl.sizes.(u);
    let e = addr + tmpl.last_end.(u) in
    if e > !max_addr then max_addr := e
  done;
  let cold_start = (!max_addr + 4096 + 31) / 32 * 32 in
  let pre = ref 0 in
  for k = 0 to nu - 1 do
    let u = g.perm.(k) in
    cbase.(u) <- cold_start + !pre;
    pre := !pre + tmpl.cold_sizes.(u)
  done;
  let ev_unit = tmpl.ev_unit and ev_off = tmpl.ev_off in
  let ev_cold = tmpl.ev_cold in
  let len = Array.length ev_unit in
  let pcs = pcs_buffer len in
  for i = 0 to len - 1 do
    let u = Array.unsafe_get ev_unit i in
    let b =
      if Bytes.unsafe_get ev_cold i = '\001' then Array.unsafe_get cbase u
      else Array.unsafe_get ubase u
    in
    Array.unsafe_set pcs i (b + Array.unsafe_get ev_off i)
  done;
  pcs

(* One warmup replay suffices: the deterministic replay reaches its
   periodic cache fixpoint after a single pass, so the measurement equals
   the canonical [Perf.steady] (warmup 3) bit for bit — [check] and the
   tests re-simulate through that path and fail loudly if a future trace
   ever breaks the fixpoint. *)
let scorer_warmup = 1

let score_genome cc tmpl g =
  let pcs = candidate_pcs cc tmpl g in
  let trace' = Trace.remap_pcs cc.s.base.Engine.trace pcs in
  (Perf.steady_scratch ~warmup:scorer_warmup ~scratch:(scratch_for cc.params)
     ~issue_cycles:cc.issue_cycles ~instr_cycles:cc.instr_cycles cc.params
     trace')
    .Perf.time_us

(* Score an arbitrary pre-built image (named strategies, incl. pessimal)
   through the same incremental path, so every number in a cell is the
   same measurement. *)
let score_image cc img =
  let trace' =
    Trace.map_pcs
      (Image.pc_map cc.s.base.Engine.client_image img)
      cc.s.base.Engine.trace
  in
  (Perf.steady_scratch ~warmup:scorer_warmup ~scratch:(scratch_for cc.params)
     ~issue_cycles:cc.issue_cycles ~instr_cycles:cc.instr_cycles cc.params
     trace')
    .Perf.time_us

(* ----- search state --------------------------------------------------------- *)

type state = {
  cc : cctx;
  budget : int;
  jobs : int;
  memo : (string, float) Hashtbl.t;
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

(* Score a batch.  Proposals were generated on this domain; only the pure
   scoring fans out, and [Dpool.run] returns submission-order results, so
   memo/best/trajectory updates are identical at any job count.  Memo
   hits are free; fresh genomes consume budget. *)
let eval_batch st genomes =
  let fresh = ref [] and n_fresh = ref 0 in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun g ->
      let k = genome_key g in
      if
        (not (Hashtbl.mem st.memo k))
        && (not (Hashtbl.mem seen k))
        && st.evals + !n_fresh < st.budget
      then begin
        Hashtbl.add seen k ();
        incr n_fresh;
        fresh := (k, g) :: !fresh
      end)
    genomes;
  let fresh = List.rev !fresh in
  if fresh <> [] then begin
    let tasks =
      List.map
        (fun (_, g) ->
          (* resolve the template here: the table is not thread-safe *)
          let tmpl = template_for st.cc.s g.cold in
          fun () -> score_genome st.cc tmpl g)
        fresh
    in
    let t0 = Unix.gettimeofday () in
    let scores = Dpool.run ~jobs:st.jobs tasks in
    st.eval_s <- st.eval_s +. (Unix.gettimeofday () -. t0);
    List.iter2
      (fun (k, g) us ->
        st.evals <- st.evals + 1;
        Hashtbl.replace st.memo k us;
        note_best st g us)
      fresh scores
  end;
  List.map (fun g -> Hashtbl.find_opt st.memo (genome_key g)) genomes

(* ----- moves ---------------------------------------------------------------- *)

let pos_of g u =
  let rec go k = if g.perm.(k) = u then k else go (k + 1) in
  go 0

let pick_pair cc rng =
  if Array.length cc.pairs = 0 || cc.pair_total <= 0 then None
  else begin
    let r = Rng.int rng cc.pair_total in
    let rec go i acc =
      let ((_, _, c) as p) = cc.pairs.(i) in
      if r < acc + c || i = Array.length cc.pairs - 1 then p
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
  let cc = st.cc in
  let s = cc.s in
  let g = copy_genome cur in
  let u, v =
    match pick_pair cc rng with
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

let unit_index sctx name =
  let rec go i = if sctx.unit_names.(i) = name then i else go (i + 1) in
  go 0

let genome_of_placement sctx placement =
  (* replicate the decoder's cursor so each offset can carry the number
     of whole reference periods the placement deliberately skips *)
  let cursor = ref code_base in
  let offs =
    List.map
      (fun (u, a) ->
        let set = a / block_bytes mod nsets_ref in
        let candidate = (!cursor / icache_ref * icache_ref) + (set * block_bytes) in
        let minimal =
          if candidate >= !cursor then candidate else candidate + icache_ref
        in
        cursor := a + Image.size_bytes u;
        set + ((a - minimal) / icache_ref * nsets_ref))
      placement
  in
  { perm =
      Array.of_list
        (List.map (fun (u, _) -> unit_index sctx (Image.unit_name u))
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

let search_cell ~budget ~seeds ~jobs sctx kb =
  let params =
    { Params.default with Params.icache_bytes = kb * 1024 }
  in
  let trace = sctx.base.Engine.trace in
  let issue_cycles = Machine.Cpu.issue_cycles params trace in
  let instr_cycles = Machine.Cpu.perfect_memory_cycles params trace in
  (* guidance: the conflict matrix of the base layout at this geometry *)
  let attrib = Obs.Attrib.profile params sctx.base.Engine.client_image trace in
  let pairs =
    Obs.Attrib.top_conflicts ~k:16 attrib
    |> List.filter_map (fun (c : Obs.Attrib.conflict) ->
           match
             ( Hashtbl.find_opt sctx.unit_of_func c.Obs.Attrib.victim,
               Hashtbl.find_opt sctx.unit_of_func c.Obs.Attrib.evictor )
           with
           | Some a, Some b -> Some (a, b, c.Obs.Attrib.count)
           | _ -> None)
    |> Array.of_list
  in
  let pair_total = Array.fold_left (fun a (_, _, c) -> a + c) 0 pairs in
  let cc =
    { s = sctx; icache_kb = kb; params; issue_cycles; instr_cycles; pairs;
      pair_total }
  in
  let st =
    { cc; budget; jobs; memo = Hashtbl.create 1024; evals = 0; eval_s = 0.0;
      best = None; traj = [] }
  in
  (* Named layouts: the four representable ones score through their seed
     genome (one batch), pessimal through a direct image retarget.  Seed
     scores land in the search memo, so best-found can never be worse
     than the best hand-picked layout. *)
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
        | Some g -> (layout, Hashtbl.find st.memo (genome_key g))
        | None ->
          let img = Engine.layout_for sctx.config sctx.stack ~layout () in
          let t0 = Unix.gettimeofday () in
          let us = score_image cc img in
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
        let us = Hashtbl.find st.memo (genome_key g) in
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
  let t0 = Unix.gettimeofday () in
  let cells =
    List.concat_map
      (fun stack ->
        let sctx = make_sctx stack in
        List.map (fun kb -> search_cell ~budget ~seeds ~jobs sctx kb)
          geometries)
      stacks
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
  List.iter
    (fun (c : cell) ->
      if !problem = None then begin
        let s = ctx_for c.stack in
        let t_units = apply_cold s c.best.cold in
        let placement =
          Strategy.at_offsets ~base:code_base ~icache_bytes:icache_ref
            ~block_bytes
            (Array.to_list
               (Array.mapi
                  (fun k u -> (t_units.(u), c.best.offs.(k)))
                  c.best.perm))
        in
        let img = Image.build placement in
        let params =
          { Params.default with Params.icache_bytes = c.icache_kb * 1024 }
        in
        let trace' =
          Trace.map_pcs
            (Image.pc_map s.base.Engine.client_image img)
            s.base.Engine.trace
        in
        let r = Perf.steady params trace' in
        if r.Perf.time_us <> c.best_us then
          problem :=
            Some
              (Printf.sprintf
                 "%s %d KB: scorer %.9f us but full simulation of the \
                  decoded best layout gives %.9f us"
                 (Engine.stack_name c.stack) c.icache_kb c.best_us
                 r.Perf.time_us)
        else if c.seeded <> [] then begin
          let bn =
            List.fold_left
              (fun acc (l, us) ->
                if List.mem l c.seeded then Float.min acc us else acc)
              infinity c.named
          in
          if c.best_us > bn then
            problem :=
              Some
                (Printf.sprintf
                   "%s %d KB: best-found %.9f us worse than seeded named \
                    best %.9f us"
                   (Engine.stack_name c.stack) c.icache_kb c.best_us bn)
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

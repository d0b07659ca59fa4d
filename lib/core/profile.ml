module Machine = Protolat_machine
module Obs = Protolat_obs
module Stats = Protolat_util.Stats

(* ----- layer mapping ------------------------------------------------------- *)

let library_funcs =
  [ "in_cksum"; "udiv"; "msg_prepare"; "map_resolve"; "event_register";
    "event_cancel"; "pool_put"; "thread_block"; "thread_signal" ]

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let layer_of ~stack func =
  let (module S) = Engine.stack stack in
  let prefixes =
    List.map (fun l -> (String.lowercase_ascii l ^ "_", l)) S.layers
    @ S.layer_aliases
  in
  if List.mem func library_funcs then "LIB"
  else
    match List.find_opt (fun (p, _) -> has_prefix p func) prefixes with
    | Some (_, l) -> l
    | None -> "OTHER"

let layer_order ~stack =
  let (module S) = Engine.stack stack in
  S.layers @ [ "LIB"; "OTHER" ]

type layer = {
  layer : string;
  instrs : int;
  issue : float;
  penalty : float;
  stall : float;
  imiss : int;
  imiss_cold : int;
  imiss_repl : int;
  dwb_miss : int;
}

let layer_cycles (l : layer) = l.issue +. l.penalty +. l.stall

let layer_mcpi (l : layer) =
  if l.instrs = 0 then 0.0 else l.stall /. float_of_int l.instrs

let layers_of ~stack (a : Obs.Attrib.t) =
  let order = layer_order ~stack in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (r : Obs.Attrib.row) ->
      let l = layer_of ~stack r.Obs.Attrib.func in
      let cur =
        match Hashtbl.find_opt tbl l with
        | Some c -> c
        | None ->
          { layer = l; instrs = 0; issue = 0.0; penalty = 0.0; stall = 0.0;
            imiss = 0; imiss_cold = 0; imiss_repl = 0; dwb_miss = 0 }
      in
      Hashtbl.replace tbl l
        { cur with
          instrs = cur.instrs + r.Obs.Attrib.instrs;
          issue = cur.issue +. r.Obs.Attrib.issue;
          penalty = cur.penalty +. r.Obs.Attrib.penalty;
          stall = cur.stall +. r.Obs.Attrib.stall;
          imiss = cur.imiss + r.Obs.Attrib.imiss;
          imiss_cold = cur.imiss_cold + r.Obs.Attrib.imiss_cold;
          imiss_repl = cur.imiss_repl + r.Obs.Attrib.imiss_repl;
          dwb_miss = cur.dwb_miss + r.Obs.Attrib.dwb_miss })
    a.Obs.Attrib.rows;
  List.filter_map (Hashtbl.find_opt tbl) order

(* ----- collection ---------------------------------------------------------- *)

type t = {
  stack : Engine.stack_kind;
  version : Config.version;
  topology : Protolat_netsim.Topology.t;
  seed : int;
  mode : [ `Steady | `Cold ];
  run : Engine.run_result;
  attrib : Obs.Attrib.t;
  layers : layer list;
}

let collect ?(topology = Protolat_netsim.Topology.pair ()) ?(seed = 42)
    ?(rounds = 24) ?(mode = `Steady) ?(params = Machine.Params.default)
    ~stack ~version () =
  let config = Config.make version in
  let run =
    Engine.run
      (Engine.Spec.make ~topology ~seed ~rounds ~params ~stack ~config ())
  in
  let attrib =
    Obs.Attrib.profile ~mode params run.Engine.client_image run.Engine.trace
  in
  { stack;
    version;
    topology;
    seed;
    mode;
    run;
    attrib;
    layers = layers_of ~stack attrib }

let collect_many ?topology ?seed ?rounds ?mode ?params ?jobs ~stack versions =
  Protolat_util.Dpool.run ?jobs
    (List.map
       (fun version ->
         fun () ->
          collect ?topology ?seed ?rounds ?mode ?params ~stack ~version ())
       versions)

let report t =
  match t.mode with
  | `Steady -> t.run.Engine.steady
  | `Cold -> t.run.Engine.cold

(* ----- consistency checks (the acceptance bars) ---------------------------- *)

let feq a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs a)

let check t =
  let rep = report t in
  let tot = t.attrib.Obs.Attrib.totals in
  let st = rep.Machine.Perf.stats in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if tot.Obs.Attrib.instrs <> rep.Machine.Perf.length then
    err "instrs: attributed %d <> trace %d" tot.Obs.Attrib.instrs
      rep.Machine.Perf.length;
  if not (feq tot.Obs.Attrib.issue rep.Machine.Perf.issue_cycles) then
    err "issue cycles: attributed %.6f <> aggregate %.6f" tot.Obs.Attrib.issue
      rep.Machine.Perf.issue_cycles;
  if
    not
      (feq
         (tot.Obs.Attrib.issue +. tot.Obs.Attrib.penalty)
         rep.Machine.Perf.instr_cycles)
  then
    err "instr cycles: attributed %.6f <> aggregate %.6f"
      (tot.Obs.Attrib.issue +. tot.Obs.Attrib.penalty)
      rep.Machine.Perf.instr_cycles;
  if not (feq (Obs.Attrib.cycles tot) rep.Machine.Perf.total_cycles) then
    err "total cycles: attributed %.6f <> aggregate %.6f"
      (Obs.Attrib.cycles tot) rep.Machine.Perf.total_cycles;
  if tot.Obs.Attrib.imiss <> st.Machine.Memsys.icache.Machine.Memsys.miss then
    err "i-cache misses: attributed %d <> aggregate %d" tot.Obs.Attrib.imiss
      st.Machine.Memsys.icache.Machine.Memsys.miss;
  let self = Obs.Attrib.self_imisses t.attrib in
  let cross = Obs.Attrib.cross_imisses t.attrib in
  let cold = t.attrib.Obs.Attrib.cold_imisses in
  if cold + self + cross <> tot.Obs.Attrib.imiss then
    err "conflict coverage: cold %d + self %d + cross %d <> %d i-misses" cold
      self cross tot.Obs.Attrib.imiss;
  let lsum f z add = List.fold_left (fun a l -> add a (f l)) z t.layers in
  if lsum (fun l -> l.instrs) 0 ( + ) <> tot.Obs.Attrib.instrs then
    err "layer instrs do not sum to the function total";
  if not (feq (lsum layer_cycles 0.0 ( +. )) (Obs.Attrib.cycles tot)) then
    err "layer cycles do not sum to the function total";
  match !errs with [] -> Ok () | es -> Error (String.concat "\n" (List.rev es))

(* ----- rendering ----------------------------------------------------------- *)

let header t =
  Printf.sprintf "%s / %s  seed=%d  %s attribution"
    (Engine.stack_name t.stack)
    (Config.version_name t.version)
    t.seed
    (match t.mode with `Steady -> "steady-state" | `Cold -> "cold-start")

let render t =
  let top = 12 in
  let b = Buffer.create 4096 in
  let rep = report t in
  let tot = t.attrib.Obs.Attrib.totals in
  Buffer.add_string b (header t);
  Buffer.add_char b '\n';
  Printf.bprintf b
    "aggregate: %d instrs, %.1f cycles = issue %.1f + penalty %.1f + stall \
     %.1f  (CPI %.2f, mCPI %.2f)\n\n"
    rep.Machine.Perf.length rep.Machine.Perf.total_cycles
    tot.Obs.Attrib.issue tot.Obs.Attrib.penalty tot.Obs.Attrib.stall
    rep.Machine.Perf.cpi rep.Machine.Perf.mcpi;
  Printf.bprintf b "%-10s %8s %10s %7s %7s %7s %7s %7s\n" "layer" "instrs"
    "cycles" "cyc/i" "mCPI" "i$miss" "(cold" "repl)";
  List.iter
    (fun l ->
      Printf.bprintf b "%-10s %8d %10.1f %7.2f %7.2f %7d %7d %7d\n" l.layer
        l.instrs (layer_cycles l)
        (if l.instrs = 0 then 0.0
         else layer_cycles l /. float_of_int l.instrs)
        (layer_mcpi l) l.imiss l.imiss_cold l.imiss_repl)
    t.layers;
  Printf.bprintf b "%-10s %8d %10.1f %7.2f %7.2f %7d %7d %7d\n" "TOTAL"
    tot.Obs.Attrib.instrs (Obs.Attrib.cycles tot)
    (if tot.Obs.Attrib.instrs = 0 then 0.0
     else Obs.Attrib.cycles tot /. float_of_int tot.Obs.Attrib.instrs)
    (Obs.Attrib.mcpi tot) tot.Obs.Attrib.imiss tot.Obs.Attrib.imiss_cold
    tot.Obs.Attrib.imiss_repl;
  Printf.bprintf b "\ntop %d functions by cycles:\n" top;
  Printf.bprintf b "  %-22s %-9s %8s %10s %7s %7s\n" "function" "layer"
    "instrs" "cycles" "mCPI" "i$miss";
  let by_cycles =
    List.stable_sort
      (fun (a : Obs.Attrib.row) b ->
        compare (Obs.Attrib.cycles b) (Obs.Attrib.cycles a))
      t.attrib.Obs.Attrib.rows
  in
  List.iteri
    (fun i (r : Obs.Attrib.row) ->
      if i < top then
        Printf.bprintf b "  %-22s %-9s %8d %10.1f %7.2f %7d\n"
          r.Obs.Attrib.func
          (layer_of ~stack:t.stack r.Obs.Attrib.func)
          r.Obs.Attrib.instrs (Obs.Attrib.cycles r) (Obs.Attrib.mcpi r)
          r.Obs.Attrib.imiss)
    by_cycles;
  let self = Obs.Attrib.self_imisses t.attrib in
  let cross = Obs.Attrib.cross_imisses t.attrib in
  let cold = t.attrib.Obs.Attrib.cold_imisses in
  Printf.bprintf b
    "\ni-cache conflicts: %d cold, %d self-interference, %d \
     cross-interference (of %d misses)\n"
    cold self cross tot.Obs.Attrib.imiss;
  if t.attrib.Obs.Attrib.conflicts <> [] then begin
    Printf.bprintf b "  %-22s %-22s %7s\n" "victim" "evictor" "misses";
    List.iter
      (fun (c : Obs.Attrib.conflict) ->
        Printf.bprintf b "  %-22s %-22s %7d\n" c.Obs.Attrib.victim
          c.Obs.Attrib.evictor c.Obs.Attrib.count)
      t.attrib.Obs.Attrib.conflicts
  end;
  Buffer.contents b

(* ----- JSON ---------------------------------------------------------------- *)

let row_fields (r : Obs.Attrib.row) =
  Obs.Json.Out.
    [ ("instrs", Int r.Obs.Attrib.instrs); ("issue", Real r.Obs.Attrib.issue);
      ("penalty", Real r.Obs.Attrib.penalty);
      ("stall", Real r.Obs.Attrib.stall);
      ("cycles", Real (Obs.Attrib.cycles r));
      ("mcpi", Real (Obs.Attrib.mcpi r)); ("imiss", Int r.Obs.Attrib.imiss);
      ("imiss_cold", Int r.Obs.Attrib.imiss_cold);
      ("imiss_repl", Int r.Obs.Attrib.imiss_repl);
      ("dwb_miss", Int r.Obs.Attrib.dwb_miss) ]

let to_json t =
  let tot = t.attrib.Obs.Attrib.totals in
  let instrs = (report t).Machine.Perf.length in
  let layer_row l =
    { Obs.Attrib.func = l.layer; instrs = l.instrs; issue = l.issue;
      penalty = l.penalty; stall = l.stall; imiss = l.imiss;
      imiss_cold = l.imiss_cold; imiss_repl = l.imiss_repl;
      dwb_miss = l.dwb_miss }
  in
  Obs.Json.Out.(
    to_string Compact
      (document
         [ ("stack", Str (Engine.stack_name t.stack));
           ("version", Str (Config.version_name t.version));
           ("topology", Str (Protolat_netsim.Topology.to_string t.topology));
           ("seed", Int t.seed);
           ("mode", Str (if t.mode = `Steady then "steady" else "cold"));
           ( "aggregate",
             Obj
               (row_fields { tot with Obs.Attrib.instrs = instrs }
               @ [ ("rtt_us_mean", Real (Stats.mean t.run.Engine.rtts)) ]) );
           ( "layers",
             Arr
               (List.map
                  (fun l ->
                    Obj (("layer", Str l.layer) :: row_fields (layer_row l)))
                  t.layers) );
           ( "functions",
             Arr
               (List.map
                  (fun (r : Obs.Attrib.row) ->
                    let f = r.Obs.Attrib.func in
                    Obj
                      (("func", Str f)
                      :: ("layer", Str (layer_of ~stack:t.stack f))
                      :: row_fields r))
                  t.attrib.Obs.Attrib.rows) );
           ( "conflicts",
             Arr
               (List.map
                  (fun (c : Obs.Attrib.conflict) ->
                    Obj
                      [ ("victim", Str c.Obs.Attrib.victim);
                        ("evictor", Str c.Obs.Attrib.evictor);
                        ("count", Int c.Obs.Attrib.count) ])
                  t.attrib.Obs.Attrib.conflicts) );
           ( "imiss_summary",
             Obj
               [ ("cold", Int t.attrib.Obs.Attrib.cold_imisses);
                 ("self", Int (Obs.Attrib.self_imisses t.attrib));
                 ("cross", Int (Obs.Attrib.cross_imisses t.attrib));
                 ("total", Int tot.Obs.Attrib.imiss) ] );
           ("metrics", Obs.Metrics.json t.run.Engine.metrics) ]))

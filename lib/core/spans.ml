module Obs = Protolat_obs
module Stats = Protolat_util.Stats
module Table = Protolat_util.Table

type cell = {
  layout : Config.layout;
  run : Engine.run_result;
  msgs : Obs.Span.message array;
  budget : Obs.Span.budget;
}

type t = {
  stack : Engine.stack_kind;
  version : Config.version;
  topology : Protolat_netsim.Topology.t;
  seed : int;
  rounds : int;
  cells : cell list;
}

let collect_one ?(topology = Protolat_netsim.Topology.pair ()) ?(seed = 42)
    ?(rounds = 24) ?fault ~stack ~version ~layout () =
  let config = Config.make version in
  let run =
    Engine.run
      (Engine.Spec.make ~topology ~seed ~rounds ~stack ~config ~layout ?fault
         ~spans:true ())
  in
  let msgs = Obs.Span.messages run.Engine.spans in
  { layout; run; msgs; budget = Obs.Span.budget msgs }

let collect ?(topology = Protolat_netsim.Topology.pair ()) ?(seed = 42)
    ?(rounds = 24) ?(layouts = Config.all_layouts) ?fault ?jobs ~stack ~version
    () =
  let cells =
    Protolat_util.Dpool.run ?jobs
      (List.map
         (fun layout ->
           fun () ->
            collect_one ~topology ~seed ~rounds ?fault ~stack ~version ~layout
              ())
         layouts)
  in
  { stack; version; topology; seed; rounds; cells }

(* ----- consistency check (the acceptance bar) ------------------------------ *)

let check t =
  let errs =
    List.filter_map
      (fun c ->
        match Obs.Span.conserved c.msgs ~rtts:c.run.Engine.rtts with
        | Ok () -> None
        | Error e ->
          Some (Printf.sprintf "[%s] %s" (Config.layout_name c.layout) e))
      t.cells
  in
  match errs with [] -> Ok () | es -> Error (String.concat "\n" es)

(* ----- rendering ----------------------------------------------------------- *)

let header t =
  Printf.sprintf "%s / %s  seed=%d  latency provenance (µs per roundtrip)"
    (Engine.stack_name t.stack)
    (Config.version_name t.version)
    t.seed

let mean_stage c s =
  if c.budget.Obs.Span.messages = 0 then 0.0
  else
    c.budget.Obs.Span.stage_us.(s)
    /. float_of_int c.budget.Obs.Span.messages

let mean_host c h =
  if c.budget.Obs.Span.messages = 0 then 0.0
  else
    Array.fold_left ( +. ) 0.0 c.budget.Obs.Span.host_stage_us.(h)
    /. float_of_int c.budget.Obs.Span.messages

let share c v =
  if c.budget.Obs.Span.mean_rtt_us <= 0.0 then 0.0
  else 100.0 *. v /. c.budget.Obs.Span.mean_rtt_us

let render t =
  let layouts = List.map (fun c -> Config.layout_name c.layout) t.cells in
  let tbl =
    Table.create ~title:(header t) ~headers:("stage" :: layouts)
  in
  for s = 0 to Obs.Span.n_stages - 1 do
    Table.add_row tbl
      (Obs.Span.stage_name s
      :: List.map
           (fun c ->
             let v = mean_stage c s in
             Printf.sprintf "%s (%4.1f%%)" (Table.cell_f ~digits:2 v)
               (share c v))
           t.cells)
  done;
  Table.add_separator tbl;
  Table.add_row tbl
    ("total (=RTT)"
    :: List.map
         (fun c -> Table.cell_f ~digits:2 c.budget.Obs.Span.mean_rtt_us)
         t.cells);
  Table.add_row tbl
    ("messages"
    :: List.map
         (fun c -> string_of_int c.budget.Obs.Span.messages)
         t.cells);
  Table.add_row tbl
    ("extra generations"
    :: List.map
         (fun c -> string_of_int c.budget.Obs.Span.extra_generations)
         t.cells);
  let hosts =
    Table.create ~title:"time on each host (µs per roundtrip)"
      ~headers:("host" :: layouts)
  in
  for h = 0 to Obs.Span.n_hosts - 1 do
    Table.add_row hosts
      (Obs.Span.host_name h
      :: List.map
           (fun c ->
             let v = mean_host c h in
             Printf.sprintf "%s (%4.1f%%)" (Table.cell_f ~digits:2 v)
               (share c v))
           t.cells)
  done;
  Table.render tbl ^ "\n" ^ Table.render hosts

(* ----- JSON ---------------------------------------------------------------- *)

let to_json t =
  let open Obs.Json.Out in
  let reals a = Arr (List.map (fun x -> Real x) (Array.to_list a)) in
  let names n name = Arr (List.init n (fun i -> Str (name i))) in
  let cell_json c =
    let b = c.budget in
    Obj
      [ ("layout", Str (Config.layout_name c.layout));
        ("messages", Int b.Obs.Span.messages);
        ("mean_rtt_us", Real b.Obs.Span.mean_rtt_us);
        ("extra_generations", Int b.Obs.Span.extra_generations);
        ("stage_mean_us", reals (Array.init Obs.Span.n_stages (mean_stage c)));
        ( "host_stage_us",
          Arr (Array.to_list (Array.map reals b.Obs.Span.host_stage_us)) );
        ( "conserved",
          Bool
            (Result.is_ok
               (Obs.Span.conserved c.msgs ~rtts:c.run.Engine.rtts)) );
        ("retransmissions", Int c.run.Engine.retransmissions) ]
  in
  to_string Compact
    (document
       [ ("stack", Str (Engine.stack_name t.stack));
         ("version", Str (Config.version_name t.version));
         ("topology", Str (Protolat_netsim.Topology.to_string t.topology));
         ("seed", Int t.seed); ("rounds", Int t.rounds);
         ("stages", names Obs.Span.n_stages Obs.Span.stage_name);
         ("hosts", names Obs.Span.n_hosts Obs.Span.host_name);
         ("layouts", Arr (List.map cell_json t.cells)) ])

(* ----- Perfetto ------------------------------------------------------------ *)

let perfetto t =
  let tracks =
    List.mapi
      (fun i c ->
        { Obs.Perfetto.span_pid = 100 + i;
          span_pname =
            Printf.sprintf "%s/%s %s spans"
              (Engine.stack_name t.stack)
              (Config.version_name t.version)
              (Config.layout_name c.layout);
          msgs = c.msgs })
      t.cells
  in
  Obs.Perfetto.to_string ~spans:tracks []

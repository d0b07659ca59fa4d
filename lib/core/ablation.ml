module Util = Protolat_util
module Machine = Protolat_machine
module Table = Util.Table

let f1 = Table.cell_f ~digits:1

let f2 = Table.cell_f ~digits:2

let rtt r = Util.Stats.mean r.Engine.rtts

(* every ablation cell is a TCP/IP spec varying one knob *)
let run ?params ?layout ?rx_overhead_us config =
  Engine.run
    (Engine.Spec.make ?params ?layout ?rx_overhead_us ~stack:Engine.Tcpip
       ~config ())

let classifier () =
  let t =
    Table.create
      ~title:
        "Ablation: packet-classifier overhead in front of the inlined path"
      ~headers:[ "Version"; "classifier [us/pkt]"; "RTT [us]"; "vs OUT [us]" ]
  in
  let out = rtt (run (Config.make Config.Out)) in
  List.iter
    (fun version ->
      List.iter
        (fun ov ->
          let r = run ~rx_overhead_us:ov (Config.make version) in
          Table.add_row t
            [ Config.version_name version; f1 ov; f1 (rtt r);
              f1 (rtt r -. out) ])
        [ 0.0; 1.0; 2.0; 4.0 ])
    [ Config.Pin; Config.All ];
  Table.add_row t [ "OUT (no classifier needed)"; "-"; f1 out; "0.0" ];
  t

let with_icache bytes =
  { Machine.Params.default with Machine.Params.icache_bytes = bytes }

let cache_size () =
  let t =
    Table.create ~title:"Ablation: i-cache size vs technique value (TCP/IP)"
      ~headers:
        [ "i-cache"; "STD RTT"; "ALL RTT"; "gain [us]"; "STD mCPI";
          "ALL mCPI" ]
  in
  List.iter
    (fun kb ->
      let params = with_icache (kb * 1024) in
      let std = run ~params (Config.make Config.Std) in
      let all = run ~params (Config.make Config.All) in
      Table.add_row t
        [ Printf.sprintf "%d KB" kb;
          f1 (rtt std);
          f1 (rtt all);
          f1 (rtt std -. rtt all);
          f2 std.Engine.steady.Machine.Perf.mcpi;
          f2 all.Engine.steady.Machine.Perf.mcpi ])
    [ 4; 8; 16; 32 ];
  t

let linear_vs_bipartite () =
  let t =
    Table.create
      ~title:
        "Ablation: linear vs bipartite layout by i-cache size (S3.2's \
         closing caveat; TCP/IP, cloned+outlined)"
      ~headers:
        [ "i-cache"; "bipartite RTT"; "linear RTT"; "bipartite mCPI";
          "linear mCPI" ]
  in
  List.iter
    (fun kb ->
      let params = with_icache (kb * 1024) in
      let go layout = run ~params ~layout (Config.make Config.Clo) in
      let bi = go Config.Bipartite and lin = go Config.Linear in
      Table.add_row t
        [ Printf.sprintf "%d KB" kb;
          f1 (rtt bi);
          f1 (rtt lin);
          f2 bi.Engine.steady.Machine.Perf.mcpi;
          f2 lin.Engine.steady.Machine.Perf.mcpi ])
    [ 8; 16; 32; 64 ];
  t

(* Layouts x i-cache sizes from ONE protocol simulation: the base run's
   steady trace is retargeted per layout (pc rewrite) and replayed per
   geometry — the sweep's cost is replays, not full runs (see
   Experiments.layout_sweep). *)
let layout_matrix () =
  let module Layout = Protolat_layout in
  let module Trace = Machine.Trace in
  let config = Config.make Config.Clo in
  let stack = Engine.Tcpip in
  let base_layout = Config.layout_of config.Config.version in
  let base =
    Engine.run (Engine.Spec.make ~stack ~config ~layout:base_layout ())
  in
  let traces =
    List.map
      (fun layout ->
        if layout = base_layout then (layout, base.Engine.trace)
        else
          let img = Engine.layout_for config stack ~layout () in
          ( layout,
            Trace.map_pcs
              (Layout.Image.pc_map base.Engine.client_image img)
              base.Engine.trace ))
      Config.all_layouts
  in
  let t =
    Table.create
      ~title:
        "Ablation: steady replay time [us] by layout and i-cache size \
         (TCP/IP, cloned+outlined; incremental sweep)"
      ~headers:
        ("i-cache"
        :: List.map
             (fun (l, _) -> Config.layout_name l)
             traces)
  in
  List.iter
    (fun kb ->
      let params = with_icache (kb * 1024) in
      Table.add_row t
        (Printf.sprintf "%d KB" kb
        :: List.map
             (fun (_, trace) ->
               f1 (Machine.Perf.steady params trace).Machine.Perf.time_us)
             traces))
    [ 4; 8; 16; 32 ];
  t

let future_machine () =
  let t =
    Table.create
      ~title:
        "Ablation: S5 outlook - 266 MHz CPU with a 66 MB/s memory system"
      ~headers:
        [ "Machine"; "STD mCPI"; "ALL mCPI"; "STD Tp [us]"; "ALL Tp [us]";
          "Tp gain" ]
  in
  let measured = Machine.Params.default in
  (* clock x1.52, memory bandwidth x0.66: relative memory latency x2.3 *)
  let future =
    { measured with
      Machine.Params.clock_mhz = 266.0;
      Machine.Params.b_hit_cycles = 23;
      Machine.Params.b_seq_cycles = 11;
      Machine.Params.mem_cycles = 104 }
  in
  List.iter
    (fun (name, params) ->
      let std = run ~params (Config.make Config.Std) in
      let all = run ~params (Config.make Config.All) in
      let tp r = r.Engine.steady.Machine.Perf.time_us in
      Table.add_row t
        [ name;
          f2 std.Engine.steady.Machine.Perf.mcpi;
          f2 all.Engine.steady.Machine.Perf.mcpi;
          f1 (tp std);
          f1 (tp all);
          Printf.sprintf "%.0f%%" (100.0 *. (tp std -. tp all) /. tp std) ])
    [ ("DEC 3000/600 (175 MHz, 100 MB/s)", measured);
      ("next generation (266 MHz, 66 MB/s)", future) ];
  t

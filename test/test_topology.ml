(* Topology descriptions, the store-and-forward switch, the fabric
   materializer, and the N-client incast scenario built on them. *)

module Ns = Protolat_netsim
module Sim = Ns.Sim
module Ether = Ns.Ether
module Topology = Ns.Topology
module Switch = Ns.Switch
module Fabric = Ns.Fabric
module Obs = Protolat_obs
module P = Protolat
module Hist = Protolat_util.Stats.Hist

(* ----- topology values ----------------------------------------------------- *)

let test_topology_round_trip () =
  let cases =
    [ Topology.pair ();
      Topology.star ~hosts:2 ();
      Topology.star ~hosts:65 ();
      Topology.line ~hosts:4 () ]
  in
  List.iter
    (fun t ->
      match Topology.of_string (Topology.to_string t) with
      | Some t' ->
        Alcotest.(check bool)
          (Topology.to_string t ^ " round-trips")
          true (Topology.equal t t')
      | None -> Alcotest.failf "%s did not parse back" (Topology.to_string t))
    cases;
  Alcotest.(check string) "pair stamp" "pair"
    (Topology.to_string (Topology.pair ()));
  Alcotest.(check string) "star stamp" "star:8"
    (Topology.to_string (Topology.star ~hosts:8 ()));
  (match Topology.of_string "star" with
  | Some t -> Alcotest.(check int) "bare star means 2 hosts" 2 (Topology.hosts t)
  | None -> Alcotest.fail "bare shape name must parse");
  Alcotest.(check bool) "garbage rejected" true
    (Topology.of_string "ring:4" = None);
  Alcotest.(check bool) "hosts 1 rejected" true
    (Topology.of_string "star:1" = None);
  Alcotest.(check bool) "pair is_pair" true (Topology.is_pair (Topology.pair ()));
  Alcotest.(check bool) "star not pair" false
    (Topology.is_pair (Topology.star ~hosts:2 ()));
  Alcotest.(check int) "line switches" 4
    (Topology.switches (Topology.line ~hosts:4 ()));
  Alcotest.(check int) "star switches" 1
    (Topology.switches (Topology.star ~hosts:9 ()));
  Alcotest.(check bool) "pair cannot have 3 hosts" true
    (Topology.of_string "pair:3" = None)

(* ----- switch unit behaviour ------------------------------------------------ *)

(* one segment per station into a 2-port switch; handlers record arrivals *)
let two_port_switch ?(queue_frames = 32) ?(learning = false) () =
  let sim = Sim.create () in
  let metrics = Obs.Metrics.create () in
  let sw =
    Switch.create sim ~ports:2 ~latency_us:5.0 ~queue_frames ~learning
      ~metrics ()
  in
  let mk port =
    let link = Ether.Link.create sim () in
    Switch.attach sw ~port ~station:1 link;
    let got = ref [] in
    Ether.Link.attach link ~station:0 (fun f -> got := f :: !got);
    (link, got)
  in
  let l0, got0 = mk 0 in
  let l1, got1 = mk 1 in
  (sim, metrics, sw, (l0, got0), (l1, got1))

let frame ~src ~dst len = { Ether.src; dst; ethertype = 0x0800;
                            payload = Bytes.make len 'x' }

let test_switch_static_forward () =
  let sim, _, sw, (l0, got0), (_, got1) = two_port_switch () in
  Switch.add_static sw ~mac:7 ~port:1;
  Ether.Link.transmit l0 ~station:0 (frame ~src:3 ~dst:7 64);
  ignore (Sim.run sim);
  Alcotest.(check int) "delivered out port 1" 1 (List.length !got1);
  Alcotest.(check int) "nothing reflected" 0 (List.length !got0);
  Alcotest.(check int) "frames_in" 1 (Switch.frames_in sw);
  Alcotest.(check int) "frames_out" 1 (Switch.frames_out sw)

let test_switch_learning_flood () =
  let sim, _, sw, (l0, got0), (l1, got1) = two_port_switch ~learning:true () in
  (* unknown destination: flooded to every other port *)
  Ether.Link.transmit l0 ~station:0 (frame ~src:3 ~dst:7 64);
  ignore (Sim.run sim);
  Alcotest.(check int) "flooded to port 1" 1 (List.length !got1);
  Alcotest.(check int) "not back out the ingress" 0 (List.length !got0);
  Alcotest.(check bool) "src learned" true (Switch.lookup sw ~mac:3 = Some 0);
  (* the reply now goes straight to the learned port, no flood *)
  Ether.Link.transmit l1 ~station:0 (frame ~src:7 ~dst:3 64);
  ignore (Sim.run sim);
  Alcotest.(check int) "reply delivered" 1 (List.length !got0);
  Alcotest.(check bool) "dst learned too" true (Switch.lookup sw ~mac:7 = Some 1)

let test_switch_queue_overflow_triple () =
  (* a 1-frame egress queue and a burst of three: the overflow must fire
     the same drop triple as a LANCE rx overrun — counter, span drop,
     conservation still holding *)
  let sim, metrics, sw, (l0, _), (_, got1) =
    two_port_switch ~queue_frames:1 ()
  in
  Sim.record sim ~events:true ~spans:false;
  let tracer = Sim.tracer sim in
  Switch.add_static sw ~mac:7 ~port:1;
  for _ = 1 to 3 do
    (* same instant: serialization happens on the ingress segment, so all
       three arrive back-to-back while port 1 is still busy *)
    Ether.Link.transmit l0 ~station:0 (frame ~src:3 ~dst:7 600)
  done;
  ignore (Sim.run sim);
  Alcotest.(check int) "frames in" 3 (Switch.frames_in sw);
  Alcotest.(check bool) "queue overflowed" true (Switch.queue_drops sw > 0);
  Alcotest.(check int) "in = out + drops" 3
    (Switch.frames_out sw + Switch.queue_drops sw);
  Alcotest.(check int) "survivors delivered"
    (Switch.frames_out sw) (List.length !got1);
  let traced = ref 0 in
  Obs.Tracer.iter tracer (fun e ->
      if e.Obs.Tracer.name = "queue_drop" then incr traced);
  Alcotest.(check int) "tracer saw every drop" (Switch.queue_drops sw) !traced;
  (* the quiesce conservation law must hold on the metrics registry *)
  let iv = P.Invariant.create () in
  P.Invariant.conservation iv ~at_us:(Sim.now sim) metrics;
  Alcotest.(check (list string)) "conservation holds" [] (P.Invariant.names iv)

let test_switch_partition_port () =
  let sim, _, sw, (l0, _), (_, got1) = two_port_switch () in
  Switch.add_static sw ~mac:7 ~port:1;
  Switch.set_partition sw ~port:1 true;
  Ether.Link.transmit l0 ~station:0 (frame ~src:3 ~dst:7 64);
  ignore (Sim.run sim);
  Alcotest.(check int) "nothing delivered" 0 (List.length !got1);
  Alcotest.(check int) "partition drop counted" 1 (Switch.partition_drops sw);
  Switch.set_partition sw ~port:1 false;
  Ether.Link.transmit l0 ~station:0 (frame ~src:3 ~dst:7 64);
  ignore (Sim.run sim);
  Alcotest.(check int) "healed" 1 (List.length !got1)

(* Span drop marks: each ends its message's wire leg in the rto-wait
   stage. *)
let rto_wait_marks span =
  Array.fold_left
    (fun n (m : Obs.Span.message) ->
      Array.fold_left
        (fun n (g : Obs.Span.seg) ->
          if g.Obs.Span.stage = Obs.Span.stage_rto_wait then n + 1 else n)
        n m.Obs.Span.segs)
    0 (Obs.Span.messages span)

(* A wire loss and the switch's queue-overflow and partition drops each
   fire the same triple as a powered-off LANCE (netsim's "lance
   powered-off transmit"): the site's counter, one span drop mark and one
   tracer instant, each moving by exactly one per dropped frame. *)
let test_drop_triples () =
  let triple label ~instant ~count ~install ~fire =
    let sim, _, sw, (l0, _), _ = two_port_switch ~queue_frames:1 () in
    Sim.record sim ~events:true ~spans:true;
    let tracer = Sim.tracer sim and span = Sim.spans sim in
    install sw l0;
    (* the ledger's message is queued for the wire when the frame dies *)
    let host = Obs.Span.host_client in
    Obs.Span.begin_run span ~at:0.0;
    Obs.Span.mark_tx_proto span ~host;
    Obs.Span.mark_tx_queue span ~host;
    let count0 = count sw l0 in
    fire l0;
    ignore (Sim.run sim);
    Obs.Span.roll span ~at:(Sim.now sim) ~measured:true;
    let instants = ref 0 in
    Obs.Tracer.iter tracer (fun e ->
        if e.Obs.Tracer.name = instant then incr instants);
    Alcotest.(check int) (label ^ ": counter") (count0 + 1) (count sw l0);
    Alcotest.(check int) (label ^ ": one tracer instant") 1 !instants;
    Alcotest.(check int) (label ^ ": one span drop mark") 1
      (rto_wait_marks span)
  in
  let send l0 = Ether.Link.transmit l0 ~station:0 (frame ~src:3 ~dst:7 64) in
  let on_switch sw _ = Switch.add_static sw ~mac:7 ~port:1 in
  triple "wire loss" ~instant:"drop"
    ~count:(fun _ l0 -> Ether.Link.frames_dropped l0)
    ~install:(fun _ l0 -> Ether.Link.set_filter l0 (fun _ -> true))
    ~fire:send;
  (* two frames arrive together; the 1-frame egress queue takes the first *)
  triple "switch queue overflow" ~instant:"queue_drop"
    ~count:(fun sw _ -> Switch.queue_drops sw)
    ~install:on_switch
    ~fire:(fun l0 ->
      send l0;
      send l0);
  triple "switch partition" ~instant:"partition_drop"
    ~count:(fun sw _ -> Switch.partition_drops sw)
    ~install:(fun sw l0 ->
      on_switch sw l0;
      Switch.set_partition sw ~port:1 true)
    ~fire:send

(* Every drop site in the network model, one frame each: the site's
   counter, the tracer instant named after it and the span ledger's
   rto-wait mark must each move by exactly one, the instant on the thread
   and the mark on the host code of the component that dropped.  The rig:
   a LANCE at station 0 of segment [l0] carrying the server's host code
   (on a switched fabric every LANCE sits at station 0, so the code cannot
   come from the station), [l0]'s station 1 on port 0 of a two-port switch
   with a 1-frame egress queue, and port 1's segment [l1] ending in a
   sink. *)
type drop_rig = {
  sw : Switch.t;
  l0 : Ether.Link.t;
  l1 : Ether.Link.t;
  lance : Ns.Lance.t;
}

type drop_site = {
  site : string;
  instant : string;  (** the tracer instant's name *)
  code : int;  (** host code of the dropping component *)
  sent : int;  (** frames put on either segment *)
  count : drop_rig -> int;  (** the site's counter *)
  fire : drop_rig -> unit;
}

let test_drop_sites () =
  let lance_code = Obs.Span.host_server and wire = Obs.Span.host_wire in
  let check { site = label; instant; code; sent; count; fire } =
    let sim = Sim.create () in
    let sw = Switch.create sim ~ports:2 ~latency_us:5.0 ~queue_frames:1 () in
    let l0 = Ether.Link.create sim () and l1 = Ether.Link.create sim () in
    let lance =
      Ns.Lance.create sim (Protolat_xkernel.Simmem.create ()) l0 ~station:0
        ~host:lance_code ()
    in
    Switch.attach sw ~port:0 ~station:1 l0;
    Switch.attach sw ~port:1 ~station:1 l1;
    let survivors = ref 0 in
    Ether.Link.attach l1 ~station:0 (fun _ -> incr survivors);
    Switch.add_static sw ~mac:7 ~port:1;
    let rig = { sw; l0; l1; lance } in
    Sim.record sim ~events:true ~spans:true;
    let tracer = Sim.tracer sim and span = Sim.spans sim in
    (* the ledger's message is queued for the wire when the frame dies *)
    let host = Obs.Span.host_client in
    Obs.Span.begin_run span ~at:0.0;
    Obs.Span.mark_tx_proto span ~host;
    Obs.Span.mark_tx_queue span ~host;
    let count0 = count rig in
    fire rig;
    ignore (Sim.run sim);
    Obs.Span.roll span ~at:(Sim.now sim) ~measured:true;
    let tids = ref [] in
    Obs.Tracer.iter tracer (fun e ->
        if e.Obs.Tracer.name = instant then tids := e.Obs.Tracer.tid :: !tids);
    let marks = ref [] in
    Array.iter
      (fun (m : Obs.Span.message) ->
        Array.iter
          (fun (g : Obs.Span.seg) ->
            if g.Obs.Span.stage = Obs.Span.stage_rto_wait then
              marks := g.Obs.Span.host :: !marks)
          m.Obs.Span.segs)
      (Obs.Span.messages span);
    Alcotest.(check int) (label ^ ": counter") (count0 + 1) (count rig);
    Alcotest.(check (list int)) (label ^ ": one instant, its thread")
      [ code ] !tids;
    Alcotest.(check (list int)) (label ^ ": one span drop mark, its host")
      [ code ] !marks;
    Alcotest.(check int) (label ^ ": frames put on a wire") sent
      (Ether.Link.frames_sent l0 + Ether.Link.frames_sent l1);
    Alcotest.(check int) (label ^ ": survivors at the sink")
      (if instant = "queue_drop" then 1 else 0)
      !survivors
  in
  let pkt dst = frame ~src:3 ~dst 64 in
  let send r = Ether.Link.transmit r.l0 ~station:0 (pkt 7) in
  (* a frame from the switch side toward the LANCE *)
  let arrive r = Ether.Link.transmit r.l0 ~station:1 (pkt 3) in
  let plan spec = Some (Ns.Fault.create ~seed:1 spec) in
  let wire_drops r = Ether.Link.frames_dropped r.l0 in
  let wire_site site instant ~sent count fire =
    { site; instant; code = wire; sent; count; fire }
  and lance_site site instant count fire =
    { site; instant; code = lance_code; sent = 1; count; fire }
  in
  List.iter check
    [ wire_site "wire filter loss" "drop" ~sent:1 wire_drops (fun r ->
          Ether.Link.set_filter r.l0 (fun _ -> true);
          send r);
      wire_site "wire fault-plan loss" "drop" ~sent:1 wire_drops (fun r ->
          Ether.Link.set_fault r.l0
            (plan { Ns.Fault.clean with Ns.Fault.loss_pct = 100.0 });
          send r);
      (* two frames arrive together; the 1-frame egress queue takes one *)
      wire_site "switch queue overflow" "queue_drop" ~sent:3
        (fun r -> Switch.queue_drops r.sw)
        (fun r ->
          send r;
          send r);
      wire_site "switch ingress partition" "partition_drop" ~sent:1
        (fun r -> Switch.partition_drops r.sw)
        (fun r ->
          Switch.set_partition r.sw ~port:0 true;
          send r);
      wire_site "switch egress partition" "partition_drop" ~sent:1
        (fun r -> Switch.partition_drops r.sw)
        (fun r ->
          Switch.set_partition r.sw ~port:1 true;
          send r);
      wire_site "switch unknown destination" "unknown_drop" ~sent:1
        (fun r -> Switch.unknown_drops r.sw)
        (fun r -> Ether.Link.transmit r.l0 ~station:0 (pkt 99));
      (* nothing reaches the wire *)
      { (lance_site "lance tx while powered off" "down_drop"
           (fun r -> Ns.Lance.down_drops r.lance)
           (fun r ->
             Ns.Lance.set_power r.lance false;
             Ns.Lance.transmit r.lance (pkt 7)))
        with
        sent = 0 };
      lance_site "lance rx while powered off" "down_drop"
        (fun r -> Ns.Lance.down_drops r.lance)
        (fun r ->
          Ns.Lance.set_power r.lance false;
          arrive r);
      lance_site "lance rx overrun" "rx_overrun"
        (fun r -> Ns.Lance.rx_missed_total r.lance)
        (fun r ->
          Ns.Lance.set_fault r.lance
            (plan { Ns.Fault.clean with Ns.Fault.rx_overrun_pct = 100.0 });
          arrive r) ]

(* ----- fabric --------------------------------------------------------------- *)

let test_fabric_shapes () =
  let sim = Sim.create () in
  let pair = Fabric.create sim ~topology:(Topology.pair ()) () in
  Alcotest.(check bool) "pair fabric" true (Fabric.is_pair pair);
  Alcotest.(check int) "no switches" 0 (Array.length (Fabric.switches pair));
  Alcotest.(check bool) "both hosts share the segment" true
    (Fabric.host_link pair 0 == Fabric.pair_link pair
    && Fabric.host_link pair 1 == Fabric.pair_link pair);
  Alcotest.(check int) "stations differ" 1
    (abs (Fabric.host_station pair 0 - Fabric.host_station pair 1));
  let star =
    Fabric.create sim ~topology:(Topology.star ~hosts:5 ())
      ~mac_of:(fun i -> 100 + i) ()
  in
  Alcotest.(check int) "one switch" 1 (Array.length (Fabric.switches star));
  Alcotest.(check bool) "own segment per host" true
    (Fabric.host_link star 0 != Fabric.host_link star 1);
  let sw = (Fabric.switches star).(0) in
  Array.iteri
    (fun i _ ->
      Alcotest.(check bool)
        (Printf.sprintf "host %d's mac routed" i)
        true
        (Switch.lookup sw ~mac:(100 + i) <> None))
    (Array.make 5 ());
  let line = Fabric.create sim ~topology:(Topology.line ~hosts:3 ()) () in
  Alcotest.(check int) "a switch per host" 3
    (Array.length (Fabric.switches line))

(* ----- pair bit-identity and the switched detour ---------------------------- *)

let rtts_of spec = (P.Engine.run spec).P.Engine.rtts

let test_engine_pair_identity () =
  (* an explicit pair topology must be bit-identical to the default *)
  List.iter
    (fun (stack, seed) ->
      let spec topology =
        P.Engine.Spec.make ?topology ~stack ~seed ~rounds:6
          ~config:(P.Config.make P.Config.All) ()
      in
      let base = rtts_of (spec None) in
      let explicit = rtts_of (spec (Some (Topology.pair ()))) in
      Alcotest.(check (list (float 0.0)))
        (Printf.sprintf "%s seed %d bit-identical"
           (P.Engine.stack_name stack) seed)
        base explicit)
    [ (P.Engine.Tcpip, 42); (P.Engine.Tcpip, 7); (P.Engine.Rpc, 42) ]

let test_engine_star2_detour () =
  (* the same run through a 2-host star pays the switch's store-and-forward
     latency on every hop but completes identically otherwise *)
  let run topology =
    P.Engine.run
      (P.Engine.Spec.make ~topology ~stack:P.Engine.Tcpip ~rounds:6
         ~config:(P.Config.make P.Config.All) ())
  in
  let pair = run (Topology.pair ()) in
  let star = run (Topology.star ~hosts:2 ()) in
  Alcotest.(check int) "same roundtrips"
    (List.length pair.P.Engine.rtts)
    (List.length star.P.Engine.rtts);
  List.iter2
    (fun p s ->
      Alcotest.(check bool) "switched path is slower" true (s > p +. 1.0))
    pair.P.Engine.rtts star.P.Engine.rtts;
  Alcotest.(check int) "no retransmissions through the switch" 0
    star.P.Engine.retransmissions

(* ----- chaos partition on the switched fabric ------------------------------- *)

let test_chaos_partition_at_port () =
  let sched =
    [ { P.Chaos.at_us = 40_000.0; ev = P.Chaos.Partition_on };
      { P.Chaos.at_us = 70_000.0; ev = P.Chaos.Partition_off } ]
  in
  let case =
    P.Chaos.case ~flows:2 ~requests:6 ~horizon_us:400_000.0
      ~topology:(Topology.star ~hosts:2 ()) ~seed:42 sched
  in
  let o = P.Chaos.run_case case in
  Alcotest.(check (list string)) "no violations" [] (P.Chaos.failure_names o);
  Alcotest.(check int) "all exchanges completed" o.P.Chaos.total
    o.P.Chaos.completed;
  Alcotest.(check int) "the partition window ran" 1 o.P.Chaos.o_partitions;
  (* on a switched fabric the window must land in the switch's partition
     counter — that is the per-port drop path the pair wiring lacks *)
  let case_json = P.Chaos.case_to_json case in
  Alcotest.(check bool) "repro stamps the topology" true
    (let rec contains i =
       i + 8 <= String.length case_json
       && (String.sub case_json i 8 = "\"star:2\"" || contains (i + 1))
     in
     contains 0)

(* ----- incast --------------------------------------------------------------- *)

let test_incast_digest_jobs_invariant () =
  (* cells fan out across domains: same digests, same order, any jobs *)
  let digests jobs =
    (P.Incast.sweep ~fan_ins:[ 2; 5; 9 ] ~seeds:2 ~jobs ~seed:42 ())
      .P.Incast.cells
    |> List.map (fun c ->
           (c.P.Incast.fan_in, c.P.Incast.seed, c.P.Incast.digest))
  in
  let d1 = digests 1 in
  Alcotest.(check int) "3 fan-ins x 2 seeds" 6 (List.length d1);
  Alcotest.(check (list (triple int int string))) "jobs 4 = jobs 1" d1
    (digests 4)

let test_incast_fan_in_64_collapse () =
  let c = P.Incast.run_cell ~fan_in:64 ~seed:42 () in
  Alcotest.(check bool) "every exchange completed" true c.P.Incast.drained;
  Alcotest.(check (list string)) "conservation holds across shards" []
    c.P.Incast.violations;
  (* fan-in 64 against a 32-frame port queue must actually collapse *)
  Alcotest.(check bool) "queue saturated" true
    (c.P.Incast.queue_peak
    >= P.Incast.default_workload.P.Incast.port_queue_frames);
  Alcotest.(check bool) "overflow dropped frames" true
    (c.P.Incast.queue_drops > 0);
  Alcotest.(check bool) "drops forced retransmissions" true
    (c.P.Incast.retransmits > 0)

let test_incast_benchmark_anchor () =
  (* the fan-in-16 cell the benchmark's fabric_incast workload anchors on *)
  let c = P.Incast.run_cell ~fan_in:16 ~seed:(P.Incast.seed_for 42 0) () in
  Alcotest.(check bool) "drained" true c.P.Incast.drained;
  Alcotest.(check string) "digest" "dfaffd22b1902e134270844ab8f35ed1"
    c.P.Incast.digest

let test_incast_pinned_percentiles () =
  (* pinned reference cell: fan-in 8, seed 42, default workload — catches
     any accidental perturbation of the deterministic fabric schedule *)
  let c = P.Incast.run_cell ~fan_in:8 ~seed:42 () in
  Alcotest.(check int) "32 exchanges" 32 c.P.Incast.lat.Hist.n;
  Alcotest.(check bool) "drained" true c.P.Incast.drained;
  Alcotest.(check (float 1e-6)) "p50" 3924.189758 c.P.Incast.lat.Hist.p50;
  Alcotest.(check (float 1e-6)) "p99" 4487.717276 c.P.Incast.lat.Hist.p99;
  Alcotest.(check (float 1e-6)) "max" 4487.717276 c.P.Incast.lat.Hist.max;
  Alcotest.(check string) "digest" "f435f9b299b808d3c02e00252ca6dd27"
    c.P.Incast.digest

let test_incast_latency_grows_with_fan_in () =
  let p50 fan_in =
    (P.Incast.run_cell ~fan_in ~seed:11 ()).P.Incast.lat.Hist.p50
  in
  let a = p50 2 and b = p50 8 and c = p50 24 in
  Alcotest.(check bool) "8 clients slower than 2" true (b > a);
  Alcotest.(check bool) "24 clients slower than 8" true (c > b)

let suite =
  ( "topology",
    [ Alcotest.test_case "topology round trip" `Quick test_topology_round_trip;
      Alcotest.test_case "switch static forward" `Quick
        test_switch_static_forward;
      Alcotest.test_case "switch learning flood" `Quick
        test_switch_learning_flood;
      Alcotest.test_case "switch queue overflow triple" `Quick
        test_switch_queue_overflow_triple;
      Alcotest.test_case "switch partition port" `Quick
        test_switch_partition_port;
      Alcotest.test_case "fabric shapes" `Quick test_fabric_shapes;
      Alcotest.test_case "engine pair identity" `Quick
        test_engine_pair_identity;
      Alcotest.test_case "engine star2 detour" `Quick test_engine_star2_detour;
      Alcotest.test_case "chaos partition at port" `Quick
        test_chaos_partition_at_port;
      Alcotest.test_case "incast digest jobs invariant" `Quick
        test_incast_digest_jobs_invariant;
      Alcotest.test_case "incast fan-in 64 collapse" `Quick
        test_incast_fan_in_64_collapse;
      Alcotest.test_case "incast benchmark anchor" `Quick
        test_incast_benchmark_anchor;
      Alcotest.test_case "incast pinned percentiles" `Quick
        test_incast_pinned_percentiles;
      Alcotest.test_case "incast latency grows with fan-in" `Quick
        test_incast_latency_grows_with_fan_in;
      Alcotest.test_case "wire and switch drop triples" `Quick
        test_drop_triples;
      Alcotest.test_case "every drop site moves all three channels" `Quick
        test_drop_sites ] )

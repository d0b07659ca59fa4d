module Xk = Protolat_xkernel
module Ns = Protolat_netsim
module T = Protolat_tcpip
module R = Protolat_rpc
module Msg = Xk.Msg
module Obs = Protolat_obs

(* flatten the pair's unified metrics registry into a cell's counter list,
   so the soak digest and report cover every device/protocol counter the
   run accumulated (zero counters are omitted to keep cells compact) *)
let metrics_counters reg =
  List.filter_map
    (fun (name, s) ->
      match s with
      | Obs.Metrics.Counter v when v > 0 -> Some (name, v)
      | _ -> None)
    (Obs.Metrics.dump reg)

(* ----- cold-block coverage ------------------------------------------------ *)

module Cover = struct
  (* reach and trigger counts indexed by interned cold site; both arrays
     grow together when a site id passes their end *)
  type t = {
    mutable reached : int array;
    mutable triggered : int array;
  }

  let create () =
    let n = Xk.Meter.Site.count () in
    { reached = Array.make n 0; triggered = Array.make n 0 }

  let ensure t i =
    let n = Array.length t.reached in
    if i >= n then begin
      let grow a =
        let b = Array.make (max (i + 1) (2 * n)) 0 in
        Array.blit a 0 b 0 n;
        b
      in
      t.reached <- grow t.reached;
      t.triggered <- grow t.triggered
    end

  let meter t =
    { Xk.Meter.null with
      Xk.Meter.cold =
        (fun ~triggered s ->
          let i = (s :> int) in
          ensure t i;
          t.reached.(i) <- t.reached.(i) + 1;
          if triggered then t.triggered.(i) <- t.triggered.(i) + 1) }

  let merge ~into src =
    ensure into (Array.length src.reached - 1);
    Array.iteri (fun i v -> into.reached.(i) <- into.reached.(i) + v) src.reached;
    Array.iteri
      (fun i v -> into.triggered.(i) <- into.triggered.(i) + v)
      src.triggered

  let count a ~func ~block =
    let i = (Xk.Meter.Site.cold func block :> int) in
    if i < Array.length a then a.(i) else 0

  let reached t ~func ~block = count t.reached ~func ~block

  let triggered t ~func ~block = count t.triggered ~func ~block
end

(* Every cold block a fault plan or protocol edge case can actually fire.
   Guards whose predicate is hardwired false in this model (divzero,
   seqwrap, msg_prepare/grow, ...) are deliberately absent: they model
   paths the reproduced stacks cannot reach, so counting them would only
   dilute the gate. *)
let tracked_cold_blocks =
  [ (* TCP/IP stack *)
    ("eth_demux", "badtype");
    ("eth_push", "arp_miss");
    ("ip_demux", "frag_reass");
    ("ip_push", "fragment");
    ("ip_push", "noroute");
    ("lance_rx", "baddesc");
    ("lance_send", "ring_full");
    ("pool_put", "free");
    ("pool_put", "malloc");
    ("tcp_demux", "listen_path");
    ("tcp_input", "bad_cksum");
    ("tcp_input", "dupack");
    ("tcp_input", "flags_slow");
    ("tcp_input", "old_ack");
    ("tcp_input", "reass");
    ("tcp_output", "persist");
    ("tcp_output", "rexmt_path");
    ("tcp_send", "notestab");
    ("tcptest_recv", "done_check");
    ("tcptest_send", "init");
    (* RPC stack *)
    ("bid_demux", "bootmiss");
    ("bid_push", "newboot");
    ("blast_demux", "cksum_bad");
    ("blast_demux", "reass");
    ("blast_demux", "sendnack");
    ("blast_push", "dofrag");
    ("chan_call", "busy");
    ("chan_demux", "dupmsg");
    ("chan_demux", "oldseq");
    ("mselect_demux", "badclient");
    ("thread_signal", "nowaiter");
    ("vchan_call", "growpool");
    ("xrpctest_call", "init");
    ("xrpctest_cont", "done_check") ]

(* ----- fault schedules ---------------------------------------------------- *)

type schedule = {
  sname : string;
  sspec : Ns.Fault.spec;
}

let clean0 = Ns.Fault.clean

let schedules =
  [ { sname = "clean"; sspec = clean0 };
    { sname = "loss"; sspec = { clean0 with Ns.Fault.loss_pct = 20.0 } };
    { sname = "burst";
      sspec =
        { clean0 with
          Ns.Fault.ge =
            Some
              { Ns.Fault.p_good_to_bad = 0.05;
                p_bad_to_good = 0.3;
                loss_good_pct = 1.0;
                loss_bad_pct = 60.0 } } };
    { sname = "corrupt"; sspec = { clean0 with Ns.Fault.corrupt_pct = 15.0 } };
    { sname = "dup"; sspec = { clean0 with Ns.Fault.duplicate_pct = 20.0 } };
    { sname = "reorder";
      sspec =
        { clean0 with
          Ns.Fault.reorder_pct = 25.0;
          (* longer than the 2 ms delayed-ack spacing, so a held-back ack
             can land behind its successor and tcp_input/old_ack is
             reachable, not just reassembly *)
          reorder_delay_us = 6000.0;
          jitter_us = 50.0 } };
    { sname = "mixed";
      sspec =
        { clean0 with
          Ns.Fault.loss_pct = 8.0;
          corrupt_pct = 5.0;
          duplicate_pct = 8.0;
          reorder_pct = 10.0;
          reorder_delay_us = 300.0;
          jitter_us = 30.0 } };
    { sname = "device";
      sspec =
        { clean0 with
          Ns.Fault.tx_stall_pct = 30.0;
          tx_stall_us = 800.0;
          rx_overrun_pct = 10.0 } } ]

(* ----- shared scenario plumbing ------------------------------------------- *)

type cell = {
  scenario : string;
  schedule : string;
  seed : int;
  failures : string list;
  counters : (string * int) list;
}

let check failures what ok = if not ok then failures := what :: !failures

let pattern ~tag len =
  Bytes.init len (fun i -> Char.chr ((i * 131 + tag * 17 + len) land 0xFF))

(* The pair every scenario runs on: both hosts at the default (improved)
   options, each metered for cold-path coverage. *)
let pair_for (type h) (module S : Engine.STACK with type host = h) cover
    ~topology : h T.Stack.gpair =
  let m = Cover.meter cover in
  T.Stack.pair_of_net (S.make_net ~meter_for:(fun _ -> Some m) ~topology ())

(* On the pair this is Engine.install_fault's seed derivation, so a soak
   cell and a metered Engine.run with the same seed see the same fault
   sequence.  On a switched fabric they differ: Engine impairs every
   segment, the soak only host 0's access segment. *)
let install_faults (type h) (module S : Engine.STACK with type host = h)
    (p : h T.Stack.gpair) ~seed ~spec =
  let plan name seed =
    Ns.Fault.create ~seed ~metrics:(Obs.Metrics.scoped p.metrics name) spec
  in
  let lf = plan "wire" (seed lxor 0x5EED) in
  let clf = plan "client_dev" (seed lxor 0x5EED + 101) in
  let slf = plan "server_dev" (seed lxor 0x5EED + 211) in
  Ns.Ether.Link.set_fault p.link (Some lf);
  Ns.Lance.set_fault (S.lance p.client) (Some clf);
  Ns.Lance.set_fault (S.lance p.server) (Some slf);
  (lf, clf, slf)

let fault_counters (lf, clf, slf) =
  [ ("fault_frames", Ns.Fault.frames_seen lf);
    ("fault_drops", Ns.Fault.drops lf);
    ("fault_corruptions", Ns.Fault.corruptions lf);
    ("fault_duplications", Ns.Fault.duplications lf);
    ("fault_reorderings", Ns.Fault.reorderings lf);
    ("fault_tx_stalls", Ns.Fault.tx_stalls clf + Ns.Fault.tx_stalls slf);
    ("fault_rx_overruns", Ns.Fault.rx_overruns clf + Ns.Fault.rx_overruns slf)
  ]

(* Run the simulation in slices until [pred] holds or the simulated
   deadline passes; returns the final predicate value. *)
let pump sim ~deadline pred =
  let continue = ref (not (pred ())) in
  while !continue do
    if Ns.Sim.now sim >= deadline then continue := false
    else begin
      ignore
        (Ns.Sim.run ~until:(Float.min deadline (Ns.Sim.now sim +. 2_000.0)) sim);
      if pred () then continue := false
    end
  done;
  pred ()

(* Every timer in the stacks is bounded (retransmission, NACK and call
   caps), so running the queue dry terminates; afterwards no host may
   hold a registered-but-unfired timer, and with the wire quiet the run's
   counters must satisfy the metrics conservation laws — a broken law is a
   cell failure like any other.  [counters] are read only then, and join
   every metric the pair's registry accumulated. *)
let finish (type h) (module S : Engine.STACK with type host = h)
    (p : h T.Stack.gpair) failures counters =
  let sim = p.sim in
  ignore (Ns.Sim.run sim);
  check failures "event queue drains" (Ns.Sim.pending sim = 0);
  List.iteri
    (fun i h ->
      let left = Xk.Event.pending (S.env h).Ns.Host_env.events in
      check failures
        (Printf.sprintf "host%d leaks no timers (%d left)" i left)
        (left = 0))
    [ p.client; p.server ];
  let iv = Invariant.create () in
  Invariant.conservation iv ~at_us:(Ns.Sim.now sim) p.metrics;
  List.iter
    (fun v -> check failures (Invariant.render_violation v) false)
    (Invariant.violations iv);
  (List.rev !failures,
   List.sort compare (counters () @ metrics_counters p.metrics))

let is_clean spec = spec = Ns.Fault.clean

(* ----- scenarios ---------------------------------------------------------- *)

(* A client->server TCP byte stream on a fresh pair.  Once the handshake
   completed, [body] runs with the connection, the server's first session
   and the bytes the server received, and returns its counters; then the
   client closes, the server only later, so the client's FIN arrives while
   the server is still Established (the FIN-processing slow path). *)
let tcp_stream cover ~topology body =
  let p = pair_for Engine.tcpip cover ~topology in
  let sim = p.T.Stack.sim in
  let received = Buffer.create 8192 in
  let srv_session = ref None in
  T.Tcp.listen p.T.Stack.server.T.Stack.tcp ~port:9 ~receive:(fun s data ->
      if !srv_session = None then srv_session := Some s;
      Buffer.add_bytes received data);
  let cs =
    T.Tcp.connect p.T.Stack.client.T.Stack.tcp ~local_port:2048
      ~remote_ip:p.T.Stack.server.T.Stack.ip_addr ~remote_port:9
      ~receive:(fun _ _ -> ())
  in
  ignore (Ns.Sim.run ~until:(Ns.Sim.now sim +. 100_000.0) sim);
  if T.Tcp.state cs <> T.Tcb.Established then
    ([ "handshake did not complete" ], [])
  else begin
    T.Tcp.set_nodelay cs true;
    let failures = ref [] in
    let counters = body p cs ~srv_session ~received failures in
    T.Tcp.close cs;
    ignore (Ns.Sim.run ~until:(Ns.Sim.now sim +. 50_000.0) sim);
    (match !srv_session with
    | Some s -> T.Tcp.close s
    | None -> ());
    finish Engine.tcpip p failures counters
  end

(* Bulk client->server transfer over TCP: payload must arrive intact and
   in order whatever the wire does; lost frames must be covered by
   retransmission, corrupted frames rejected by a checksum somewhere. *)
let tcp_transfer ~cover ~seed ~spec ~quick ~topology =
  tcp_stream cover ~topology (fun p cs ~srv_session:_ ~received failures ->
      let sim = p.T.Stack.sim in
      (* faults start only after the handshake, as in Engine.run *)
      let faults = install_faults Engine.tcpip p ~seed ~spec in
      let sent = Buffer.create 8192 in
      let chunks = if quick then 30 else 90 in
      for i = 0 to chunks - 1 do
        let b = pattern ~tag:i (64 + ((i * 97) mod 900)) in
        Buffer.add_bytes sent b;
        T.Tcp.send cs b;
        ignore (Ns.Sim.run ~until:(Ns.Sim.now sim +. 300.0) sim)
      done;
      let total = Buffer.length sent in
      let delivered =
        pump sim
          ~deadline:(Ns.Sim.now sim +. 30.0e6)
          (fun () -> Buffer.length received >= total)
      in
      check failures "all bytes delivered" delivered;
      if delivered then
        check failures "payload intact and in order"
          (Bytes.equal (Buffer.to_bytes received) (Buffer.to_bytes sent));
      let ctcp = p.T.Stack.client.T.Stack.tcp in
      let stcp = p.T.Stack.server.T.Stack.tcp in
      let rexmt = T.Tcp.retransmits ctcp + T.Tcp.retransmits stcp in
      let lf, _, _ = faults in
      if is_clean spec then begin
        check failures "clean: no retransmissions" (rexmt = 0);
        check failures "clean: no wire drops"
          (Ns.Ether.Link.frames_dropped p.T.Stack.link = 0)
      end;
      (* independent loss without duplication must force retransmission *)
      if spec.Ns.Fault.duplicate_pct = 0.0 && Ns.Fault.drops lf >= 5 then
        check failures "loss recovered by retransmission" (rexmt > 0);
      if Ns.Fault.corruptions lf >= 5 then
        check failures "corruption rejected by a checksum"
          (Cover.triggered cover ~func:"tcp_input" ~block:"bad_cksum" > 0
          || T.Ip.packets_dropped p.T.Stack.client.T.Stack.ip
             + T.Ip.packets_dropped p.T.Stack.server.T.Stack.ip
             > 0);
      (fun () ->
        [ ("bytes", total);
          ("retransmits", rexmt);
          ("link_drops", Ns.Ether.Link.frames_dropped p.T.Stack.link);
          ("ring_full_events",
           Ns.Netdev.tx_ring_full_events p.T.Stack.client.T.Stack.netdev
           + Ns.Netdev.tx_ring_full_events p.T.Stack.server.T.Stack.netdev);
          ("rx_desc_errors",
           Ns.Netdev.rx_desc_errors p.T.Stack.client.T.Stack.netdev
           + Ns.Netdev.rx_desc_errors p.T.Stack.server.T.Stack.netdev) ]
        @ fault_counters faults))

(* The paper's latency ping-pong under faults: every roundtrip must still
   complete (retransmission covers losses), and a fault-free wire must
   not retransmit at all. *)
let tcp_pingpong ~cover ~seed ~spec ~quick ~topology =
  let p = pair_for Engine.tcpip cover ~topology in
  let sim = p.T.Stack.sim in
  let failures = ref [] in
  let rounds = if quick then 20 else 40 in
  let ct, _st = T.Stack.establish p ~rounds in
  let faults = install_faults Engine.tcpip p ~seed ~spec in
  T.Tcptest.start ct;
  let completed =
    pump sim
      ~deadline:(Ns.Sim.now sim +. 60.0e6)
      (fun () -> T.Tcptest.rounds_completed ct >= rounds)
  in
  check failures
    (Printf.sprintf "all %d roundtrips completed (%d done)" rounds
       (T.Tcptest.rounds_completed ct))
    completed;
  let rexmt =
    T.Tcp.retransmits p.T.Stack.client.T.Stack.tcp
    + T.Tcp.retransmits p.T.Stack.server.T.Stack.tcp
  in
  if is_clean spec then begin
    check failures "clean: no retransmissions" (rexmt = 0);
    check failures "clean: no wire drops"
      (Ns.Ether.Link.frames_dropped p.T.Stack.link = 0)
  end;
  finish Engine.tcpip p failures (fun () ->
      [ ("rounds", T.Tcptest.rounds_completed ct);
        ("retransmits", rexmt);
        ("link_drops", Ns.Ether.Link.frames_dropped p.T.Stack.link) ]
      @ fault_counters faults)

(* Receiver advertises a zero window mid-transfer: the sender must arm
   the persist timer and probe (tcp_output/persist is otherwise dead
   code), then resume and finish once the window reopens. *)
let tcp_zero_window ~cover ~seed:_ ~spec:_ ~quick:_ ~topology =
  tcp_stream cover ~topology (fun p cs ~srv_session ~received failures ->
      let sim = p.T.Stack.sim in
      (* close the receive window, then queue more data than the last
         advertised window can absorb: the surplus must wait on probes *)
      (T.Tcp.tcb cs).T.Tcb.rcv_wnd <- 4096;
      let server_tcb = ref None in
      let sent = Buffer.create 8192 in
      let chunks = 12 in
      for i = 0 to chunks - 1 do
        let b = pattern ~tag:i 512 in
        Buffer.add_bytes sent b;
        T.Tcp.send cs b;
        if i = 0 then begin
          (* first chunk reveals the server session; freeze its window *)
          ignore (Ns.Sim.run ~until:(Ns.Sim.now sim +. 5_000.0) sim);
          match !srv_session with
          | Some s ->
            let tcb = T.Tcp.tcb s in
            tcb.T.Tcb.rcv_wnd <- 0;
            server_tcb := Some tcb
          | None -> check failures "server session appeared" false
        end
      done;
      ignore (Ns.Sim.run ~until:(Ns.Sim.now sim +. 40_000.0) sim);
      let probes = T.Tcp.persist_probes p.T.Stack.client.T.Stack.tcp in
      check failures "persist probes sent while window closed" (probes > 0);
      check failures "transfer stalled on the closed window"
        (Buffer.length received < Buffer.length sent);
      (* reopen the window: the next probe's ack unblocks the sender *)
      (match !server_tcb with
      | Some tcb -> tcb.T.Tcb.rcv_wnd <- 4096
      | None -> ());
      let total = Buffer.length sent in
      let delivered =
        pump sim
          ~deadline:(Ns.Sim.now sim +. 2.0e6)
          (fun () -> Buffer.length received >= total)
      in
      check failures "all bytes delivered after reopen" delivered;
      if delivered then
        check failures "payload intact and in order"
          (Bytes.equal (Buffer.to_bytes received) (Buffer.to_bytes sent));
      (fun () ->
        [ ("bytes", total);
          ("persist_probes", T.Tcp.persist_probes p.T.Stack.client.T.Stack.tcp)
        ]))

(* Protocol edge cases that need no wire faults: send-before-establish,
   SYN to a dead port (retransmit give-up), unroutable destination,
   IP fragmentation/reassembly, unknown ethertype, and a receive handler
   that retains its buffer (forcing the pool's free/malloc slow path). *)
let tcp_edge ~cover ~seed:_ ~spec:_ ~quick:_ ~topology =
  let p = pair_for Engine.tcpip cover ~topology in
  let sim = p.T.Stack.sim in
  let client = p.T.Stack.client in
  let server = p.T.Stack.server in
  let failures = ref [] in
  (* SYN to a port nobody listens on: the client must retransmit with
     backoff and eventually give the session up (state Closed) *)
  let cs =
    T.Tcp.connect client.T.Stack.tcp ~local_port:2048
      ~remote_ip:server.T.Stack.ip_addr ~remote_port:99
      ~receive:(fun _ _ -> ())
  in
  (* send before the handshake: the notestab guard must reject it *)
  let notestab_raised =
    try
      T.Tcp.send cs (Bytes.make 4 'x');
      false
    with Failure _ -> true
  in
  check failures "send before establish rejected" notestab_raised;
  (* the backed-off SYN chain needs ~11 s of simulated time to exhaust
     its 12 tries (initial RTO is 24 ticks) *)
  let gave_up =
    pump sim
      ~deadline:(Ns.Sim.now sim +. 20.0e6)
      (fun () -> T.Tcp.state cs = T.Tcb.Closed)
  in
  check failures "dead-port connect gives up" gave_up;
  check failures "dead-port connect retransmitted"
    (T.Tcp.retransmits client.T.Stack.tcp > 0);
  (* unroutable destination: ip_push must drop, not raise *)
  let ip_dropped0 = T.Ip.packets_dropped client.T.Stack.ip in
  T.Udp.send client.T.Stack.udp ~src_port:5 ~dst_ip:0x0A000001 ~dst_port:5
    (pattern ~tag:1 32);
  check failures "unroutable datagram dropped"
    (T.Ip.packets_dropped client.T.Stack.ip = ip_dropped0 + 1);
  (* a 5000-byte datagram: fragmentation out, reassembly in *)
  let udp_got = ref None in
  T.Udp.bind server.T.Stack.udp ~port:53
    (fun ~src_ip:_ ~src_port:_ data -> udp_got := Some data);
  let big = pattern ~tag:2 5000 in
  T.Udp.send client.T.Stack.udp ~src_port:53
    ~dst_ip:server.T.Stack.ip_addr ~dst_port:53 big;
  ignore (Ns.Sim.run ~until:(Ns.Sim.now sim +. 50_000.0) sim);
  (match !udp_got with
  | Some data ->
    check failures "fragmented datagram reassembled intact"
      (Bytes.equal data big)
  | None -> check failures "fragmented datagram delivered" false);
  check failures "datagram was fragmented"
    (T.Ip.datagrams_fragmented client.T.Stack.ip > 0
    && T.Ip.datagrams_reassembled server.T.Stack.ip > 0);
  (* a frame for an ethertype nobody registered *)
  let stray = Msg.alloc client.T.Stack.env.Ns.Host_env.simmem ~headroom:64 0 in
  Msg.set_payload stray (pattern ~tag:3 64);
  Ns.Netdev.send client.T.Stack.netdev ~dst:server.T.Stack.mac
    ~ethertype:0x0999 stray;
  (* a handler that retains the receive buffer: the pool cannot reuse it
     in place and must genuinely free + reallocate *)
  Ns.Netdev.register server.T.Stack.netdev ~ethertype:0x0777
    (fun ~src:_ msg -> Msg.retain msg);
  let keep = Msg.alloc client.T.Stack.env.Ns.Host_env.simmem ~headroom:64 0 in
  Msg.set_payload keep (pattern ~tag:4 64);
  Ns.Netdev.send client.T.Stack.netdev ~dst:server.T.Stack.mac
    ~ethertype:0x0777 keep;
  ignore (Ns.Sim.run ~until:(Ns.Sim.now sim +. 10_000.0) sim);
  check failures "unknown ethertype hit the badtype guard"
    (Cover.triggered cover ~func:"eth_demux" ~block:"badtype" > 0);
  check failures "retained buffer forced pool free+malloc"
    (Cover.triggered cover ~func:"pool_put" ~block:"malloc" > 0);
  finish Engine.tcpip p failures (fun () ->
      [ ("client_retransmits", T.Tcp.retransmits client.T.Stack.tcp);
        ("ip_fragmented", T.Ip.datagrams_fragmented client.T.Stack.ip);
        ("ip_reassembled", T.Ip.datagrams_reassembled server.T.Stack.ip) ])

(* Multi-fragment BLAST transfers: reassembly with selective retransmit
   must deliver every message exactly once and intact; a 64 KB burst
   overruns the 16-descriptor LANCE transmit ring on the way out. *)
let blast_transfer ~cover ~seed ~spec ~quick ~topology =
  let p = pair_for Engine.rpc cover ~topology in
  let sim = p.R.Rstack.sim in
  let client = p.R.Rstack.client in
  let server = p.R.Rstack.server in
  let failures = ref [] in
  let deliveries = ref [] in
  (* detach BID on the receiving side: this scenario exercises BLAST
     itself, so reassembled messages land in our collector *)
  R.Blast.set_upper server.R.Rstack.blast (fun ~src:_ msg ->
      deliveries := Msg.contents msg :: !deliveries);
  let faults = install_faults Engine.rpc p ~seed ~spec in
  let sizes = if quick then [ 4000; 33000 ] else [ 4000; 12000; 64000; 2900 ] in
  List.iteri
    (fun i size ->
      let payload = pattern ~tag:i size in
      let msg = Msg.alloc client.R.Rstack.env.Ns.Host_env.simmem ~headroom:64 0 in
      Msg.set_payload msg payload;
      R.Blast.push client.R.Rstack.blast ~dst:server.R.Rstack.mac msg;
      let want = i + 1 in
      let delivered =
        pump sim
          ~deadline:(Ns.Sim.now sim +. 500_000.0)
          (fun () -> List.length !deliveries >= want)
      in
      check failures
        (Printf.sprintf "message %d (%d B) delivered" i size)
        delivered;
      if delivered then begin
        check failures
          (Printf.sprintf "message %d delivered exactly once" i)
          (List.length !deliveries = want);
        check failures
          (Printf.sprintf "message %d intact" i)
          (Bytes.equal (List.hd !deliveries) payload)
      end)
    sizes;
  let lf, _, _ = faults in
  check failures "large burst overran the tx ring"
    (Ns.Netdev.tx_ring_full_events client.R.Rstack.netdev > 0);
  if is_clean spec then begin
    check failures "clean: no NACKs"
      (R.Blast.nacks_sent server.R.Rstack.blast = 0);
    check failures "clean: no fragment retransmissions"
      (R.Blast.retransmissions client.R.Rstack.blast = 0)
  end;
  if Ns.Fault.drops lf >= 3 then
    check failures "fragment loss recovered by NACK"
      (R.Blast.nacks_sent server.R.Rstack.blast > 0
      && R.Blast.retransmissions client.R.Rstack.blast > 0);
  if Ns.Fault.corruptions lf >= 3 then
    check failures "corrupted fragments rejected by checksum"
      (R.Blast.cksum_drops server.R.Rstack.blast
       + R.Blast.cksum_drops client.R.Rstack.blast
       > 0);
  finish Engine.rpc p failures (fun () ->
      [ ("messages", List.length !deliveries);
        ("nacks", R.Blast.nacks_sent server.R.Rstack.blast);
        ("frag_retransmits", R.Blast.retransmissions client.R.Rstack.blast);
        ("cksum_drops",
         R.Blast.cksum_drops server.R.Rstack.blast
         + R.Blast.cksum_drops client.R.Rstack.blast);
        ("late_fragments", R.Blast.late_fragments server.R.Rstack.blast);
        ("abandoned", R.Blast.abandoned server.R.Rstack.blast);
        ("ring_full_events",
         Ns.Netdev.tx_ring_full_events client.R.Rstack.netdev) ]
      @ fault_counters faults)

(* The RPC ping-pong under faults: CHAN's request retransmission must
   carry every call to completion; a clean wire retransmits nothing. *)
let rpc_pingpong ~cover ~seed ~spec ~quick ~topology =
  let p = pair_for Engine.rpc cover ~topology in
  let sim = p.R.Rstack.sim in
  let failures = ref [] in
  let rounds = if quick then 15 else 30 in
  let ct, _st = R.Rstack.make_tests p ~rounds in
  let faults = install_faults Engine.rpc p ~seed ~spec in
  R.Xrpctest.start ct;
  let completed =
    pump sim
      ~deadline:(Ns.Sim.now sim +. 60.0e6)
      (fun () -> R.Xrpctest.rounds_completed ct >= rounds)
  in
  check failures
    (Printf.sprintf "all %d calls completed (%d done)" rounds
       (R.Xrpctest.rounds_completed ct))
    completed;
  let creq = R.Chan.request_retransmits p.R.Rstack.client.R.Rstack.chan in
  if is_clean spec then begin
    check failures "clean: no request retransmissions" (creq = 0);
    check failures "clean: no wire drops"
      (Ns.Ether.Link.frames_dropped p.R.Rstack.link = 0)
  end;
  check failures "no calls abandoned"
    (R.Chan.call_failures p.R.Rstack.client.R.Rstack.chan = 0);
  finish Engine.rpc p failures (fun () ->
      [ ("rounds", R.Xrpctest.rounds_completed ct);
        ("request_retransmits", creq);
        ("duplicate_requests",
         R.Chan.duplicate_requests p.R.Rstack.server.R.Rstack.chan);
        ("link_drops", Ns.Ether.Link.frames_dropped p.R.Rstack.link) ]
      @ fault_counters faults)

(* CHAN/VCHAN/MSELECT edge cases on a clean wire: a busy channel, an
   unanswered request retransmitting to its cap, a duplicate reply with
   nobody waiting, an undecodable request, channel-pool growth under
   concurrent calls, and a call to an unregistered client id. *)
let rpc_stress ~cover ~seed:_ ~spec:_ ~quick:_ ~topology =
  let p = pair_for Engine.rpc cover ~topology in
  let sim = p.R.Rstack.sim in
  let client = p.R.Rstack.client in
  let server = p.R.Rstack.server in
  let failures = ref [] in
  let simmem h = h.R.Rstack.env.Ns.Host_env.simmem in
  (* a request whose payload is too short for MSELECT to decode: the
     server hits badclient and never replies, so the client channel
     retransmits (duplicate requests on the server) until we forge the
     reply ourselves *)
  let direct_reply = ref 0 in
  let short = Msg.alloc (simmem client) ~headroom:64 0 in
  Msg.set_payload short (Bytes.make 2 'q');
  R.Chan.call client.R.Rstack.chan ~chan:100 short ~reply:(fun _ ->
      incr direct_reply);
  (* a second call on the same channel must be rejected as busy *)
  let busy_raised =
    let again = Msg.alloc (simmem client) ~headroom:64 0 in
    Msg.set_payload again (Bytes.make 2 'q');
    try
      R.Chan.call client.R.Rstack.chan ~chan:100 again ~reply:(fun _ -> ());
      false
    with Failure _ -> true
  in
  check failures "second call on a busy channel rejected" busy_raised;
  (* let two retransmissions reach the server *)
  ignore (Ns.Sim.run ~until:(Ns.Sim.now sim +. 12_000.0) sim);
  check failures "undecodable request hit badclient"
    (Cover.triggered cover ~func:"mselect_demux" ~block:"badclient" > 0);
  check failures "request retransmissions seen as duplicates"
    (R.Chan.duplicate_requests server.R.Rstack.chan > 0);
  (* forge the reply the server never sent; the duplicate that follows
     finds nobody waiting (thread_signal/nowaiter) *)
  let forge_reply () =
    let msg = Msg.alloc (simmem server) ~headroom:64 0 in
    Msg.push msg
      (R.Hdrs.Chan.to_bytes
         { R.Hdrs.Chan.kind = R.Hdrs.Chan.Reply; chan = 100; seq = 1; len = 0 });
    R.Bid.push server.R.Rstack.bid ~dst:client.R.Rstack.mac msg
  in
  forge_reply ();
  ignore (Ns.Sim.run ~until:(Ns.Sim.now sim +. 5_000.0) sim);
  check failures "forged reply resumed the caller" (!direct_reply = 1);
  forge_reply ();
  ignore (Ns.Sim.run ~until:(Ns.Sim.now sim +. 5_000.0) sim);
  check failures "duplicate reply found nobody waiting"
    (Cover.triggered cover ~func:"thread_signal" ~block:"nowaiter" > 0);
  (* ten concurrent calls through MSELECT: the 8-channel pool must grow *)
  R.Mselect.register server.R.Rstack.mselect ~client:7 (fun data ~reply ->
      reply data);
  let echoes = ref 0 in
  let wanted = 10 in
  for i = 0 to wanted - 1 do
    let payload = pattern ~tag:i 24 in
    let msg = Msg.alloc (simmem client) ~headroom:64 0 in
    Msg.set_payload msg payload;
    R.Mselect.call client.R.Rstack.mselect ~client:7 msg ~reply:(fun data ->
        if Bytes.equal data payload then incr echoes)
  done;
  let echoed =
    pump sim
      ~deadline:(Ns.Sim.now sim +. 100_000.0)
      (fun () -> !echoes >= wanted)
  in
  check failures
    (Printf.sprintf "all %d concurrent calls echoed (%d done)" wanted !echoes)
    echoed;
  check failures "channel pool grew under concurrency"
    (Cover.triggered cover ~func:"vchan_call" ~block:"growpool" > 0);
  (* a call to a client id with no registered server procedure: no reply
     ever comes, so the channel must retransmit to its cap and give up *)
  let orphan = Msg.alloc (simmem client) ~headroom:64 0 in
  Msg.set_payload orphan (pattern ~tag:99 24);
  R.Mselect.call client.R.Rstack.mselect ~client:99 orphan ~reply:(fun _ ->
      check failures "unregistered client id must never get a reply" false);
  ignore (Ns.Sim.run ~until:(Ns.Sim.now sim +. 80_000.0) sim);
  check failures "unanswered call abandoned after the retransmit cap"
    (R.Chan.call_failures client.R.Rstack.chan = 1);
  finish Engine.rpc p failures (fun () ->
      [ ("echoes", !echoes);
        ("duplicate_requests", R.Chan.duplicate_requests server.R.Rstack.chan);
        ("call_failures", R.Chan.call_failures client.R.Rstack.chan) ])

(* ----- the matrix --------------------------------------------------------- *)

type scenario = {
  name : string;
  applies : string list;
  body :
    cover:Cover.t ->
    seed:int ->
    spec:Ns.Fault.spec ->
    quick:bool ->
    topology:Ns.Topology.t ->
    string list * (string * int) list;
}

let scenarios =
  [ { name = "tcp_transfer";
      applies =
        [ "clean"; "loss"; "burst"; "corrupt"; "dup"; "reorder"; "mixed";
          "device" ];
      body = tcp_transfer };
    { name = "tcp_pingpong";
      applies = [ "clean"; "loss"; "dup"; "reorder" ];
      body = tcp_pingpong };
    { name = "tcp_zero_window"; applies = [ "clean" ]; body = tcp_zero_window };
    { name = "tcp_edge"; applies = [ "clean" ]; body = tcp_edge };
    { name = "blast_transfer";
      applies = [ "clean"; "loss"; "corrupt"; "reorder"; "device"; "mixed" ];
      body = blast_transfer };
    { name = "rpc_pingpong";
      applies = [ "clean"; "loss"; "dup"; "mixed" ];
      body = rpc_pingpong };
    { name = "rpc_stress"; applies = [ "clean" ]; body = rpc_stress } ]

type report = {
  cells : cell list;
  cover : Cover.t;
  covered : (string * string) list;
  missing : (string * string) list;
  digest : string;
}

(* distinct stream from Engine.sample_seed so the soak and the paper's
   measurement protocol never share fault sequences *)
let seed_for i = 7001 + (i * 104729)

let canonical_cells cells =
  let b = Buffer.create 4096 in
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "%s/%s/%d %s" c.scenario c.schedule c.seed
           (if c.failures = [] then "ok" else "FAIL"));
      List.iter (fun f -> Buffer.add_string b (" !" ^ f)) c.failures;
      List.iter
        (fun (k, v) -> Buffer.add_string b (Printf.sprintf " %s=%d" k v))
        c.counters;
      Buffer.add_char b '\n')
    cells;
  Buffer.contents b

let run ?(seeds = 4) ?jobs ?(quick = false)
    ?(topology = Ns.Topology.pair ()) () =
  let tasks =
    List.concat_map
      (fun sc ->
        List.concat_map
          (fun sch ->
            if not (List.mem sch.sname sc.applies) then []
            else
              (* the clean schedule draws no randomness: one cell *)
              let n = if sch.sname = "clean" then 1 else max 1 seeds in
              List.init n (fun i ->
                  let seed = seed_for i in
                  fun () ->
                    let cover = Cover.create () in
                    let failures, counters =
                      try sc.body ~cover ~seed ~spec:sch.sspec ~quick ~topology
                      with e ->
                        ([ "exception: " ^ Printexc.to_string e ], [])
                    in
                    ( { scenario = sc.name;
                        schedule = sch.sname;
                        seed;
                        failures;
                        counters },
                      cover )))
          schedules)
      scenarios
  in
  let results = Protolat_util.Dpool.run ?jobs tasks in
  let cells = List.map fst results in
  let cover = Cover.create () in
  List.iter (fun (_, c) -> Cover.merge ~into:cover c) results;
  let covered, missing =
    List.partition
      (fun (func, block) -> Cover.triggered cover ~func ~block > 0)
      tracked_cold_blocks
  in
  let canonical =
    canonical_cells cells
    ^ "covered:"
    ^ String.concat ","
        (List.map (fun (f, b) -> f ^ "/" ^ b) covered)
    ^ "\n"
  in
  let digest = Digest.to_hex (Digest.string canonical) in
  { cells; cover; covered; missing; digest }

let coverage_pct r =
  100.0
  *. float_of_int (List.length r.covered)
  /. float_of_int (List.length tracked_cold_blocks)

let passed r =
  List.for_all (fun c -> c.failures = []) r.cells && coverage_pct r >= 90.0

let render r =
  let b = Buffer.create 4096 in
  let ok_cells = List.length (List.filter (fun c -> c.failures = []) r.cells) in
  Buffer.add_string b
    (Printf.sprintf "protocol soak: %d/%d cells passed\n" ok_cells
       (List.length r.cells));
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "  %-16s %-8s seed=%-8d %s\n" c.scenario c.schedule
           c.seed
           (if c.failures = [] then "ok" else "FAIL"));
      List.iter
        (fun f -> Buffer.add_string b (Printf.sprintf "      failed: %s\n" f))
        c.failures)
    r.cells;
  Buffer.add_string b
    (Printf.sprintf "cold-path coverage: %d/%d tracked blocks triggered (%.1f%%)\n"
       (List.length r.covered)
       (List.length tracked_cold_blocks)
       (coverage_pct r));
  if r.missing <> [] then
    Buffer.add_string b
      ("  never triggered: "
      ^ String.concat ", "
          (List.map (fun (f, bl) -> f ^ "/" ^ bl) r.missing)
      ^ "\n");
  let agg = Hashtbl.create 64 in
  List.iter
    (fun c ->
      List.iter
        (fun (k, v) ->
          if String.contains k '.' then
            Hashtbl.replace agg k
              (v + Option.value ~default:0 (Hashtbl.find_opt agg k)))
        c.counters)
    r.cells;
  let names = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) agg []) in
  if names <> [] then begin
    Buffer.add_string b "metrics (summed across cells):\n";
    List.iter
      (fun k ->
        Buffer.add_string b
          (Printf.sprintf "  %-36s %d\n" k (Hashtbl.find agg k)))
      names
  end;
  Buffer.add_string b (Printf.sprintf "digest: %s\n" r.digest);
  Buffer.add_string b
    (Printf.sprintf "verdict: %s\n" (if passed r then "PASS" else "FAIL"));
  Buffer.contents b

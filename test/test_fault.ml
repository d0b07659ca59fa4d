(* Tests for the deterministic fault-injection layer and the soak
   harness: protocols must recover from seeded loss, reordering and
   corruption, device faults must surface in counters, and the soak
   matrix must be bit-identical at any jobs count. *)

module P = Protolat
module T = Protolat_tcpip
module R = Protolat_rpc
module Ns = Protolat_netsim
module Xk = Protolat_xkernel
module Obs = Protolat_obs
module Msg = Xk.Msg

let pattern ~tag len =
  Bytes.init len (fun i -> Char.chr ((i * 131 + tag * 17 + len) land 0xFF))

let install ~seed spec (link, client_lance, server_lance) =
  Ns.Ether.Link.set_fault link
    (Some (Ns.Fault.create ~seed:(seed lxor 0x5EED) spec));
  Ns.Lance.set_fault client_lance
    (Some (Ns.Fault.create ~seed:((seed lxor 0x5EED) + 101) spec));
  Ns.Lance.set_fault server_lance
    (Some (Ns.Fault.create ~seed:((seed lxor 0x5EED) + 211) spec))

(* Run in slices until [pred] holds or [deadline] (absolute µs) passes. *)
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

(* ----- TCP under loss ------------------------------------------------------ *)

let tcp_pair_established () =
  let p =
    T.Stack.pair_of_net (T.Stack.make_net ~topology:(Ns.Topology.pair ()) ())
  in
  let sim = p.T.Stack.sim in
  let received = Buffer.create 4096 in
  T.Tcp.listen p.T.Stack.server.T.Stack.tcp ~port:9
    ~receive:(fun _ data -> Buffer.add_bytes received data);
  let cs =
    T.Tcp.connect p.T.Stack.client.T.Stack.tcp ~local_port:2048
      ~remote_ip:p.T.Stack.server.T.Stack.ip_addr ~remote_port:9
      ~receive:(fun _ _ -> ())
  in
  ignore (Ns.Sim.run ~until:(Ns.Sim.now sim +. 100_000.0) sim);
  Alcotest.(check bool) "handshake" true (T.Tcp.state cs = T.Tcb.Established);
  (p, cs, received)

let test_tcp_completes_under_loss () =
  let p, cs, received = tcp_pair_established () in
  let sim = p.T.Stack.sim in
  T.Tcp.set_nodelay cs true;
  install ~seed:4242
    { Ns.Fault.clean with Ns.Fault.loss_pct = 20.0 }
    (p.T.Stack.link, p.T.Stack.client.T.Stack.lance,
     p.T.Stack.server.T.Stack.lance);
  let sent = Buffer.create 4096 in
  for i = 0 to 29 do
    let b = pattern ~tag:i (64 + ((i * 97) mod 900)) in
    Buffer.add_bytes sent b;
    T.Tcp.send cs b;
    ignore (Ns.Sim.run ~until:(Ns.Sim.now sim +. 300.0) sim)
  done;
  let total = Buffer.length sent in
  let delivered =
    pump sim ~deadline:(Ns.Sim.now sim +. 30.0e6) (fun () ->
        Buffer.length received >= total)
  in
  Alcotest.(check bool) "all bytes delivered under 20% loss" true delivered;
  Alcotest.(check bool) "payload intact and in order" true
    (Bytes.equal (Buffer.to_bytes received) (Buffer.to_bytes sent));
  Alcotest.(check bool) "losses were covered by retransmission" true
    (T.Tcp.retransmits p.T.Stack.client.T.Stack.tcp > 0)

let test_tcp_gives_up_on_dead_wire () =
  let p, cs, _ = tcp_pair_established () in
  let sim = p.T.Stack.sim in
  T.Tcp.set_nodelay cs true;
  install ~seed:7 { Ns.Fault.clean with Ns.Fault.loss_pct = 100.0 }
    (p.T.Stack.link, p.T.Stack.client.T.Stack.lance,
     p.T.Stack.server.T.Stack.lance);
  T.Tcp.send cs (pattern ~tag:0 256);
  (* the retransmit chain is capped and exponentially backed off, so the
     queue runs dry with the session closed, not spinning forever *)
  ignore (Ns.Sim.run sim);
  Alcotest.(check bool) "session gave up and closed" true
    (T.Tcp.state cs = T.Tcb.Closed);
  let rexmt = T.Tcp.retransmits p.T.Stack.client.T.Stack.tcp in
  Alcotest.(check bool) "backoff chain bounded (6..12 tries)" true
    (rexmt >= 6 && rexmt <= 12);
  Alcotest.(check int) "no timers leaked" 0
    (Xk.Event.pending p.T.Stack.client.T.Stack.env.Ns.Host_env.events)

(* BSD backoff against a powered-off peer: each unanswered retransmission
   doubles the wait until the shift cap (max_rexmt_shift = 6), the gaps
   then stay flat at rto << 6, and the timer after the 12th retransmission
   (max_rexmt_tries) drops the connection — 13 gaps summing to 511 rto. *)
let test_tcp_backoff_cap () =
  let p, cs, _ = tcp_pair_established () in
  let sim = p.T.Stack.sim in
  Ns.Sim.record sim ~events:true ~spans:false;
  let tracer = Ns.Sim.tracer sim in
  T.Tcp.set_nodelay cs true;
  Ns.Lance.set_power p.T.Stack.server.T.Stack.lance false;
  let t0 = Ns.Sim.now sim in
  T.Tcp.send cs (pattern ~tag:0 256);
  ignore (Ns.Sim.run sim);
  Alcotest.(check bool) "connection dropped" true
    (T.Tcp.state cs = T.Tcb.Closed);
  let dropped_at = Ns.Sim.now sim in
  let sends = ref [ t0 ] in
  Obs.Tracer.iter tracer (fun e ->
      if e.Obs.Tracer.name = "retransmit" && e.Obs.Tracer.tid = 0 then
        sends := e.Obs.Tracer.ts :: !sends);
  let times = Array.of_list (List.rev (dropped_at :: !sends)) in
  Alcotest.(check int) "12 retransmissions" 12
    (T.Tcp.retransmits p.T.Stack.client.T.Stack.tcp);
  Alcotest.(check int) "13 gaps" 14 (Array.length times);
  let rto = times.(1) -. times.(0) in
  for k = 1 to 12 do
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "gap %d is rto << %d" k (min k 6))
      (rto *. float_of_int (1 lsl min k 6))
      (times.(k + 1) -. times.(k))
  done;
  Alcotest.(check (float 1e-6)) "dropped at t0 + 511 rto"
    (t0 +. (511.0 *. rto)) dropped_at;
  (* handshake window 100 ms, rto the 6-tick floor of 976 us ticks *)
  Alcotest.(check (float 0.0)) "simulated drop time pinned" 3_092_416.0
    dropped_at

(* ----- BLAST under faults --------------------------------------------------- *)

let rpc_pair () =
  let p =
    R.Rstack.pair_of_net (R.Rstack.make_net ~topology:(Ns.Topology.pair ()) ())
  in
  let deliveries = ref [] in
  R.Blast.set_upper p.R.Rstack.server.R.Rstack.blast (fun ~src:_ msg ->
      deliveries := Msg.contents msg :: !deliveries);
  (p, deliveries)

let blast_push (p : R.Rstack.pair) payload =
  let client = p.R.Rstack.client in
  let msg = Msg.alloc client.R.Rstack.env.Ns.Host_env.simmem ~headroom:64 0 in
  Msg.set_payload msg payload;
  R.Blast.push client.R.Rstack.blast ~dst:p.R.Rstack.server.R.Rstack.mac msg

let test_blast_completes_under_loss_and_reordering () =
  let p, deliveries = rpc_pair () in
  let sim = p.R.Rstack.sim in
  install ~seed:99
    { Ns.Fault.clean with
      Ns.Fault.loss_pct = 15.0;
      reorder_pct = 25.0;
      reorder_delay_us = 400.0 }
    (p.R.Rstack.link, p.R.Rstack.client.R.Rstack.lance,
     p.R.Rstack.server.R.Rstack.lance);
  let payload = pattern ~tag:3 12_000 in
  blast_push p payload;
  let delivered =
    pump sim ~deadline:(Ns.Sim.now sim +. 500_000.0) (fun () ->
        !deliveries <> [])
  in
  Alcotest.(check bool) "message delivered" true delivered;
  Alcotest.(check int) "delivered exactly once" 1 (List.length !deliveries);
  Alcotest.(check bool) "reassembled intact" true
    (Bytes.equal (List.hd !deliveries) payload)

let test_blast_rejects_corrupted_fragments () =
  let p, deliveries = rpc_pair () in
  let sim = p.R.Rstack.sim in
  install ~seed:1234
    { Ns.Fault.clean with Ns.Fault.corrupt_pct = 25.0 }
    (p.R.Rstack.link, p.R.Rstack.client.R.Rstack.lance,
     p.R.Rstack.server.R.Rstack.lance);
  let payload = pattern ~tag:5 12_000 in
  blast_push p payload;
  let delivered =
    pump sim ~deadline:(Ns.Sim.now sim +. 500_000.0) (fun () ->
        !deliveries <> [])
  in
  Alcotest.(check bool) "message delivered despite corruption" true delivered;
  Alcotest.(check bool) "corrupted fragments were checksum-rejected" true
    (R.Blast.cksum_drops p.R.Rstack.server.R.Rstack.blast > 0);
  Alcotest.(check bool) "delivered copy is the uncorrupted one" true
    (Bytes.equal (List.hd !deliveries) payload)

let test_blast_burst_overruns_tx_ring () =
  let p, deliveries = rpc_pair () in
  let sim = p.R.Rstack.sim in
  (* clean wire: 64 KB is ~46 fragments against a 16-descriptor ring *)
  let payload = pattern ~tag:9 64_000 in
  blast_push p payload;
  let delivered =
    pump sim ~deadline:(Ns.Sim.now sim +. 500_000.0) (fun () ->
        !deliveries <> [])
  in
  Alcotest.(check bool) "burst delivered" true delivered;
  Alcotest.(check bool) "tx ring exhaustion was exercised" true
    (Ns.Netdev.tx_ring_full_events p.R.Rstack.client.R.Rstack.netdev > 0);
  Alcotest.(check bool) "reassembled intact" true
    (Bytes.equal (List.hd !deliveries) payload)

(* ----- fault-plan determinism ----------------------------------------------- *)

let test_fault_plan_deterministic () =
  let spec =
    { Ns.Fault.clean with
      Ns.Fault.loss_pct = 10.0;
      corrupt_pct = 5.0;
      duplicate_pct = 5.0;
      reorder_pct = 10.0;
      reorder_delay_us = 200.0 }
  in
  let draw () =
    let f = Ns.Fault.create ~seed:77 spec in
    List.init 200 (fun i ->
        let v = Ns.Fault.wire_verdict f ~len:(64 + (i mod 1400)) in
        (v.Ns.Fault.drop, v.Ns.Fault.corrupt_at, v.Ns.Fault.duplicate,
         v.Ns.Fault.extra_delay_us))
  in
  Alcotest.(check bool) "same seed, same verdict sequence" true
    (draw () = draw ())

(* ----- spec validation ------------------------------------------------------ *)

(* A malformed spec must be rejected at construction, not sampled from:
   NaN or out-of-range probabilities would silently skew every draw. *)
let test_fault_spec_validated () =
  let rejects name spec =
    Alcotest.(check bool) name true
      (match Ns.Fault.create ~seed:1 spec with
      | exception Invalid_argument _ -> true
      | _ -> false)
  in
  rejects "NaN loss_pct"
    { Ns.Fault.clean with Ns.Fault.loss_pct = Float.nan };
  rejects "negative loss_pct" { Ns.Fault.clean with Ns.Fault.loss_pct = -5.0 };
  rejects "loss_pct over 100"
    { Ns.Fault.clean with Ns.Fault.loss_pct = 120.0 };
  rejects "infinite reorder delay"
    { Ns.Fault.clean with Ns.Fault.reorder_delay_us = Float.infinity };
  rejects "negative jitter" { Ns.Fault.clean with Ns.Fault.jitter_us = -1.0 };
  rejects "GE probability over 1"
    { Ns.Fault.clean with
      Ns.Fault.ge =
        Some
          { Ns.Fault.p_good_to_bad = 1.5; p_bad_to_good = 0.1;
            loss_good_pct = 0.0; loss_bad_pct = 50.0 } };
  (* boundary values are legal *)
  ignore
    (Ns.Fault.create ~seed:1
       { Ns.Fault.clean with Ns.Fault.loss_pct = 100.0 });
  ignore (Ns.Fault.create ~seed:1 Ns.Fault.clean)

(* ----- soak matrix ---------------------------------------------------------- *)

(* The digest covers every cell's failures and counters (fault-plan,
   device and protocol metrics included) plus the covered cold blocks, so
   pinning its value holds each scenario's setup, fault plans and drain
   check bit for bit, not just its independence from the job count. *)
let test_soak_quick_deterministic_across_jobs () =
  let r1 = P.Soak.run ~seeds:2 ~jobs:1 ~quick:true () in
  let r2 = P.Soak.run ~seeds:2 ~jobs:2 ~quick:true () in
  Alcotest.(check string) "digest independent of jobs" r1.P.Soak.digest
    r2.P.Soak.digest;
  Alcotest.(check string) "digest pinned" "43f409aba737263e2e4f98d42a0d50c8"
    r1.P.Soak.digest;
  Alcotest.(check bool) "quick soak passes" true (P.Soak.passed r1);
  Alcotest.(check bool) "coverage gate met" true
    (P.Soak.coverage_pct r1 >= 90.0)

let suite =
  ( "fault",
    [ Alcotest.test_case "tcp completes under 20% loss" `Quick
        test_tcp_completes_under_loss;
      Alcotest.test_case "tcp gives up on a dead wire" `Quick
        test_tcp_gives_up_on_dead_wire;
      Alcotest.test_case "tcp backoff cap" `Quick test_tcp_backoff_cap;
      Alcotest.test_case "blast completes under loss + reordering" `Quick
        test_blast_completes_under_loss_and_reordering;
      Alcotest.test_case "blast rejects corrupted fragments" `Quick
        test_blast_rejects_corrupted_fragments;
      Alcotest.test_case "blast burst overruns the tx ring" `Quick
        test_blast_burst_overruns_tx_ring;
      Alcotest.test_case "fault plan is seed-deterministic" `Quick
        test_fault_plan_deterministic;
      Alcotest.test_case "fault spec validated at construction" `Quick
        test_fault_spec_validated;
      Alcotest.test_case "soak digest identical at any jobs" `Quick
        test_soak_quick_deterministic_across_jobs ] )

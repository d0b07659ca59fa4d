(* Tests for the substrate extensions beyond the paper's measured paths:
   UDP, IP fragmentation/reassembly, TCP bulk transfer with send buffering
   and out-of-order reassembly, the packet classifier, throughput, and the
   ablation tables. *)

module P = Protolat
module T = Protolat_tcpip
module Ns = Protolat_netsim
module Xk = Protolat_xkernel

let pair () =
  T.Stack.pair_of_net (T.Stack.make_net ~topology:(Ns.Topology.pair ()) ())

let run_sim ?(us = 5.0e6) (p : T.Stack.pair) =
  ignore (Ns.Sim.run ~until:(Ns.Sim.now p.T.Stack.sim +. us) p.T.Stack.sim)

(* ----- UDP ----------------------------------------------------------------- *)

let test_udp_roundtrip () =
  let p = pair () in
  let got = ref [] in
  T.Udp.bind p.T.Stack.server.T.Stack.udp ~port:53
    (fun ~src_ip ~src_port data ->
      got := (src_ip, src_port, Bytes.to_string data) :: !got);
  T.Udp.send p.T.Stack.client.T.Stack.udp ~src_port:4000
    ~dst_ip:p.T.Stack.server.T.Stack.ip_addr ~dst_port:53
    (Bytes.of_string "query");
  run_sim p;
  match !got with
  | [ (src_ip, src_port, data) ] ->
    Alcotest.(check string) "payload" "query" data;
    Alcotest.(check int) "src port" 4000 src_port;
    Alcotest.(check bool) "src ip" true
      (src_ip = p.T.Stack.client.T.Stack.ip_addr)
  | l -> Alcotest.fail (Printf.sprintf "%d datagrams" (List.length l))

let test_udp_unbound_port_dropped () =
  let p = pair () in
  T.Udp.send p.T.Stack.client.T.Stack.udp ~src_port:4000
    ~dst_ip:p.T.Stack.server.T.Stack.ip_addr ~dst_port:9999
    (Bytes.of_string "void");
  run_sim p;
  Alcotest.(check int) "received but no handler" 1
    (T.Udp.datagrams_in p.T.Stack.server.T.Stack.udp);
  Alcotest.(check int) "no checksum failures" 0
    (T.Udp.checksum_failures p.T.Stack.server.T.Stack.udp)

let test_udp_port_conflict () =
  let p = pair () in
  T.Udp.bind p.T.Stack.server.T.Stack.udp ~port:7
    (fun ~src_ip:_ ~src_port:_ _ -> ());
  Alcotest.check_raises "port in use" (Failure "Udp.bind: port in use")
    (fun () ->
      T.Udp.bind p.T.Stack.server.T.Stack.udp ~port:7
        (fun ~src_ip:_ ~src_port:_ _ -> ()))

(* ----- IP fragmentation ------------------------------------------------------ *)

let test_ip_fragmentation_roundtrip () =
  let p = pair () in
  let payload = Bytes.init 4000 (fun i -> Char.chr (i * 7 land 0xFF)) in
  let got = ref None in
  T.Udp.bind p.T.Stack.server.T.Stack.udp ~port:9
    (fun ~src_ip:_ ~src_port:_ data -> got := Some data);
  T.Udp.send p.T.Stack.client.T.Stack.udp ~src_port:4001
    ~dst_ip:p.T.Stack.server.T.Stack.ip_addr ~dst_port:9 payload;
  run_sim p;
  Alcotest.(check int) "fragmented" 1
    (T.Ip.datagrams_fragmented p.T.Stack.client.T.Stack.ip);
  Alcotest.(check int) "reassembled" 1
    (T.Ip.datagrams_reassembled p.T.Stack.server.T.Stack.ip);
  match !got with
  | Some data -> Alcotest.(check bool) "intact" true (Bytes.equal data payload)
  | None -> Alcotest.fail "not delivered"

let prop_ip_fragmentation_sizes =
  QCheck.Test.make ~name:"IP fragments reassemble for any size" ~count:20
    QCheck.(int_range 1 12000)
    (fun n ->
      let p = pair () in
      let payload = Bytes.init n (fun i -> Char.chr (i land 0xFF)) in
      let got = ref None in
      T.Udp.bind p.T.Stack.server.T.Stack.udp ~port:9
        (fun ~src_ip:_ ~src_port:_ data -> got := Some data);
      T.Udp.send p.T.Stack.client.T.Stack.udp ~src_port:4001
        ~dst_ip:p.T.Stack.server.T.Stack.ip_addr ~dst_port:9 payload;
      run_sim p;
      !got = Some payload)

(* A frame too short for an IP header, and a header with a valid checksum
   whose version/IHL byte is not 0x45, are counted drops at the receiver:
   neither raises out of the simulation, and a good datagram still gets
   through afterwards. *)
let test_ip_drops_malformed () =
  let p = pair () in
  let client = p.T.Stack.client and server = p.T.Stack.server in
  let send bytes =
    let msg =
      Xk.Msg.of_string client.T.Stack.env.Ns.Host_env.simmem
        (Bytes.to_string bytes)
    in
    T.Vnet.push client.T.Stack.vnet ~dst_ip:server.T.Stack.ip_addr msg
  in
  send (Bytes.of_string "short");
  let hdr =
    T.Ip_hdr.to_bytes
      (T.Ip_hdr.make ~total_len:T.Ip_hdr.size ~proto:T.Ip_hdr.proto_tcp
         ~src:client.T.Stack.ip_addr ~dst:server.T.Stack.ip_addr ())
  in
  Bytes.set hdr 0 '\x46';
  Bytes.set hdr 10 '\000';
  Bytes.set hdr 11 '\000';
  let csum = T.Checksum.compute hdr 0 T.Ip_hdr.size in
  Bytes.set hdr 10 (Char.chr (csum lsr 8));
  Bytes.set hdr 11 (Char.chr (csum land 0xFF));
  Alcotest.(check bool) "the bad-version header's checksum is valid" true
    (T.Ip_hdr.valid_checksum hdr);
  send hdr;
  run_sim p;
  Alcotest.(check int) "both frames reached IP" 2
    (T.Ip.packets_in server.T.Stack.ip);
  Alcotest.(check int) "both frames dropped" 2
    (T.Ip.packets_dropped server.T.Stack.ip);
  let got = ref 0 in
  T.Udp.bind server.T.Stack.udp ~port:9 (fun ~src_ip:_ ~src_port:_ _ -> incr got);
  T.Udp.send client.T.Stack.udp ~src_port:4001 ~dst_ip:server.T.Stack.ip_addr
    ~dst_port:9 (Bytes.of_string "ok");
  run_sim p;
  Alcotest.(check int) "a good datagram still delivered" 1 !got;
  Alcotest.(check int) "no further drops" 2
    (T.Ip.packets_dropped server.T.Stack.ip)

(* An IP datagram whose TCP payload is shorter than a TCP header (here 7
   bytes and none) is a counted drop at the receiver's TCP, not an
   exception out of the simulation, and a connection opened afterwards
   still exchanges data. *)
let test_tcp_drops_short_segments () =
  let p = pair () in
  let client = p.T.Stack.client and server = p.T.Stack.server in
  let send n =
    T.Ip.push client.T.Stack.ip ~dst:server.T.Stack.ip_addr
      ~proto:T.Ip_hdr.proto_tcp
      (Xk.Msg.of_string client.T.Stack.env.Ns.Host_env.simmem (String.make n 'x'))
  in
  send 7;
  send 0;
  run_sim p;
  Alcotest.(check int) "both datagrams passed IP" 0
    (T.Ip.packets_dropped server.T.Stack.ip);
  Alcotest.(check int) "both segments dropped" 2
    (T.Tcp.segments_dropped server.T.Stack.tcp);
  let echoed = ref "" in
  T.Tcp.listen server.T.Stack.tcp ~port:7 ~receive:(fun s data ->
      echoed := Bytes.to_string data;
      T.Tcp.send s data);
  let got = ref "" in
  let session =
    T.Tcp.connect client.T.Stack.tcp ~local_port:1024
      ~remote_ip:server.T.Stack.ip_addr ~remote_port:7
      ~receive:(fun _ data -> got := Bytes.to_string data)
  in
  run_sim ~us:100_000.0 p;
  Alcotest.(check bool) "established afterwards" true
    (T.Tcp.state session = T.Tcb.Established);
  T.Tcp.send session (Bytes.of_string "ping");
  run_sim p;
  Alcotest.(check string) "request arrived" "ping" !echoed;
  Alcotest.(check string) "reply arrived" "ping" !got;
  Alcotest.(check int) "no further drops" 2
    (T.Tcp.segments_dropped server.T.Stack.tcp)

(* ----- TCP bulk transfer ------------------------------------------------------ *)

let bulk_setup p ~bytes:_ =
  let received = Buffer.create 1024 in
  T.Tcp.listen p.T.Stack.server.T.Stack.tcp ~port:5001 ~receive:(fun _ data ->
      Buffer.add_bytes received data);
  let session =
    T.Tcp.connect p.T.Stack.client.T.Stack.tcp ~local_port:3000
      ~remote_ip:p.T.Stack.server.T.Stack.ip_addr ~remote_port:5001
      ~receive:(fun _ _ -> ())
  in
  run_sim ~us:50_000.0 p;
  Alcotest.(check bool) "established" true
    (T.Tcp.state session = T.Tcb.Established);
  (session, received)

let test_bulk_transfer () =
  let p = pair () in
  let n = 100 * 1024 in
  let session, received = bulk_setup p ~bytes:n in
  let payload = Bytes.init n (fun i -> Char.chr (i * 31 land 0xFF)) in
  T.Tcp.send session payload;
  run_sim ~us:3.0e6 p;
  Alcotest.(check int) "all bytes arrived" n (Buffer.length received);
  Alcotest.(check bool) "in order and intact" true
    (Bytes.equal (Buffer.to_bytes received) payload);
  Alcotest.(check int) "no retransmissions" 0
    (T.Tcp.retransmits p.T.Stack.client.T.Stack.tcp)

let test_bulk_transfer_with_loss () =
  let p = pair () in
  let n = 30 * 1024 in
  let session, received = bulk_setup p ~bytes:n in
  (* drop the 3rd and 7th large frames: exercises out-of-order queueing at
     the receiver and oldest-first retransmission at the sender *)
  let count = ref 0 in
  Ns.Ether.Link.set_filter p.T.Stack.link (fun f ->
      if Bytes.length f.Ns.Ether.payload > 1000 then begin
        incr count;
        !count = 3 || !count = 7
      end
      else false);
  let payload = Bytes.init n (fun i -> Char.chr (i * 13 land 0xFF)) in
  T.Tcp.send session payload;
  run_sim ~us:30.0e6 p;
  Alcotest.(check int) "all bytes arrived despite loss" n
    (Buffer.length received);
  Alcotest.(check bool) "intact" true
    (Bytes.equal (Buffer.to_bytes received) payload);
  Alcotest.(check bool) "retransmitted" true
    (T.Tcp.retransmits p.T.Stack.client.T.Stack.tcp > 0)

(* ----- classifier ----------------------------------------------------------- *)

let frame ~ethertype ~proto ~dst_port =
  let b = Bytes.make 60 '\000' in
  Bytes.set b 12 (Char.chr (ethertype lsr 8 land 0xFF));
  Bytes.set b 13 (Char.chr (ethertype land 0xFF));
  Bytes.set b 14 '\x45';
  Bytes.set b (14 + 9) (Char.chr proto);
  Bytes.set b (14 + 20 + 2) (Char.chr (dst_port lsr 8 land 0xFF));
  Bytes.set b (14 + 20 + 3) (Char.chr (dst_port land 0xFF));
  b

let test_classifier_match () =
  let c = T.Classify.create (T.Classify.tcp_path_rules ~dst_port:7) in
  Alcotest.(check (option int)) "tcp to port 7 -> path 1" (Some 1)
    (T.Classify.classify c (frame ~ethertype:0x0800 ~proto:6 ~dst_port:7));
  Alcotest.(check (option int)) "other port -> general" None
    (T.Classify.classify c (frame ~ethertype:0x0800 ~proto:6 ~dst_port:80));
  Alcotest.(check (option int)) "udp -> general" None
    (T.Classify.classify c (frame ~ethertype:0x0800 ~proto:17 ~dst_port:7));
  Alcotest.(check (option int)) "arp -> general" None
    (T.Classify.classify c (frame ~ethertype:0x0806 ~proto:6 ~dst_port:7));
  Alcotest.(check bool) "counts comparisons" true (T.Classify.comparisons c > 0)

let test_classifier_rule_order () =
  let c =
    T.Classify.create
      [ T.Classify.rule ~dst_port:7 1; T.Classify.rule ~ethertype:0x0800 2 ]
  in
  Alcotest.(check (option int)) "first match wins" (Some 1)
    (T.Classify.classify c (frame ~ethertype:0x0800 ~proto:6 ~dst_port:7))

let test_classifier_ablation_direction () =
  List.iter
    (fun stack ->
      let rtt ov =
        let r =
          P.Engine.run
            (P.Engine.Spec.make ~rx_overhead_us:ov ~stack
               ~config:(P.Config.make P.Config.All) ())
        in
        Protolat_util.Stats.mean r.P.Engine.rtts
      in
      let base = rtt 0.0 and with4 = rtt 4.0 in
      (* two packets per roundtrip, both hosts classify: 4us/packet -> ~8us *)
      Alcotest.(check bool)
        (P.Engine.stack_name stack ^ ": classifier costs ~8us per roundtrip")
        true
        (with4 -. base > 6.0 && with4 -. base < 10.0))
    [ P.Engine.Tcpip; P.Engine.Rpc ]

(* ----- throughput -------------------------------------------------------------- *)

let test_throughput_wire_bound () =
  let std = P.Engine.throughput ~config:(P.Config.make P.Config.Std) () in
  let all = P.Engine.throughput ~config:(P.Config.make P.Config.All) () in
  Alcotest.(check bool) "near wire speed" true (std.P.Engine.mbits_per_s > 7.0);
  Alcotest.(check bool) "techniques do not hurt throughput" true
    (all.P.Engine.mbits_per_s >= std.P.Engine.mbits_per_s -. 0.05);
  Alcotest.(check bool) "techniques reduce CPU utilization" true
    (all.P.Engine.client_cpu_pct < std.P.Engine.client_cpu_pct)

let test_refresh_reduces_cpu () =
  let cpu opts =
    (P.Engine.throughput ~config:(P.Config.make ~opts P.Config.Std) ())
      .P.Engine.client_cpu_pct
  in
  Alcotest.(check bool) "S2.2 changes reduce CPU utilization" true
    (cpu T.Opts.improved < cpu T.Opts.original)

(* ----- ARP ----------------------------------------------------------------- *)

let arp_pair () =
  let sim = Ns.Sim.create () in
  let link = Ns.Ether.Link.create sim () in
  let mk station mac ip =
    let env = Ns.Host_env.create sim () in
    let lance = Ns.Lance.create sim env.Ns.Host_env.simmem link ~station () in
    let nd = Ns.Netdev.create env lance ~mac () in
    (nd, T.Arp.create env nd ~my_ip:ip)
  in
  let a = mk 0 0xAAA 0x0A000001 and b = mk 1 0xBBB 0x0A000002 in
  (sim, a, b)

let test_arp_resolve () =
  let sim, (_, arp_a), (_, _arp_b) = arp_pair () in
  let got = ref None in
  T.Arp.resolve arp_a ~ip:0x0A000002 (fun mac -> got := Some mac);
  Alcotest.(check (option int)) "not yet" None !got;
  ignore (Ns.Sim.run sim);
  Alcotest.(check (option int)) "resolved" (Some 0xBBB) !got;
  Alcotest.(check int) "one request" 1 (T.Arp.requests_sent arp_a);
  (* the peer learned our binding from the request itself *)
  Alcotest.(check (option int)) "cache hit now" (Some 0xBBB)
    (T.Arp.lookup arp_a ~ip:0x0A000002)

let test_arp_shared_request () =
  let sim, (_, arp_a), _ = arp_pair () in
  let hits = ref 0 in
  T.Arp.resolve arp_a ~ip:0x0A000002 (fun _ -> incr hits);
  T.Arp.resolve arp_a ~ip:0x0A000002 (fun _ -> incr hits);
  ignore (Ns.Sim.run sim);
  Alcotest.(check int) "both callbacks" 2 !hits;
  Alcotest.(check int) "single request on the wire" 1
    (T.Arp.requests_sent arp_a)

let test_arp_static_entry () =
  let _, (_, arp_a), _ = arp_pair () in
  T.Arp.add_entry arp_a ~ip:0x0A000002 ~mac:0x123;
  let got = ref None in
  T.Arp.resolve arp_a ~ip:0x0A000002 (fun mac -> got := Some mac);
  Alcotest.(check (option int)) "immediate" (Some 0x123) !got;
  Alcotest.(check int) "no request" 0 (T.Arp.requests_sent arp_a)

let test_tcp_over_arp () =
  (* two hosts with NO static routes: VNET resolves via real ARP, and the
     TCP handshake + ping-pong work on top *)
  let sim = Ns.Sim.create () in
  let link = Ns.Ether.Link.create sim () in
  let mk station mac ip base =
    let host =
      T.Stack.make_host sim link ~station ~mac ~ip_addr:ip
        ~opts:T.Opts.improved ~simmem_base:base ()
    in
    let arp =
      T.Arp.create host.T.Stack.env host.T.Stack.netdev ~my_ip:ip
    in
    T.Vnet.set_resolver host.T.Stack.vnet (fun ip k ->
        T.Arp.resolve arp ~ip k);
    (host, arp)
  in
  let client, arp_c = mk 0 0x111 0x0A000001 0x1010_0000 in
  let server, _arp_s = mk 1 0x222 0x0A000002 0x3010_0000 in
  let echoed = ref 0 in
  T.Tcp.listen server.T.Stack.tcp ~port:7 ~receive:(fun s data ->
      incr echoed;
      T.Tcp.send s data);
  let pongs = ref 0 in
  let session =
    T.Tcp.connect client.T.Stack.tcp ~local_port:1024
      ~remote_ip:0x0A000002 ~remote_port:7
      ~receive:(fun _ _ -> incr pongs)
  in
  ignore (Ns.Sim.run ~until:100_000.0 sim);
  Alcotest.(check bool) "established over ARP" true
    (T.Tcp.state session = T.Tcb.Established);
  Alcotest.(check bool) "arp request went out" true
    (T.Arp.requests_sent arp_c >= 1);
  T.Tcp.send session (Bytes.of_string "x");
  ignore (Ns.Sim.run ~until:(Ns.Sim.now sim +. 2.0e6) sim);
  Alcotest.(check int) "echoed" 1 !echoed;
  Alcotest.(check int) "pong received" 1 !pongs

(* ----- trace text export -------------------------------------------------- *)

module Tr = Protolat_machine.Trace
module I = Protolat_machine.Instr

(* The [Trace.to_string] format ([pc class [R|W addr] [@func]]) read back
   by a parser written against the format alone: a round trip through it
   shows the export keeps every event and function tag. *)
let trace_of_text text =
  let tags =
    [ ("alu", I.Alu); ("ld", I.Load); ("st", I.Store); ("bt", I.Br_taken);
      ("bn", I.Br_not_taken); ("jsr", I.Jsr); ("ret", I.Ret); ("mul", I.Mul);
      ("nop", I.Nop) ]
  in
  let hex s = int_of_string ("0x" ^ s) in
  let t = Tr.create () in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "" ] -> ()
      | pc :: tag :: rest ->
        let kind, addr, rest =
          match rest with
          | "R" :: a :: rest -> (Tr.kind_read, hex a, rest)
          | "W" :: a :: rest -> (Tr.kind_write, hex a, rest)
          | rest -> (Tr.kind_none, 0, rest)
        in
        let fid =
          match rest with
          | [] -> -1
          | [ f ] when String.length f > 1 && f.[0] = '@' ->
            Tr.intern t (String.sub f 1 (String.length f - 1))
          | _ -> Alcotest.failf "malformed trace line %S" line
        in
        Tr.add_packed t ~pc:(hex pc) ~cls:(List.assoc tag tags) ~kind ~addr
          ~fid
      | _ -> Alcotest.failf "malformed trace line %S" line)
    (String.split_on_char '\n' text);
  t

let func_of t i = if Tr.fid_at t i < 0 then "" else Tr.func_name t (Tr.fid_at t i)

let test_trace_roundtrip () =
  let t = Tr.create () in
  Tr.add t ~pc:0x1000 ~cls:I.Alu ();
  Tr.add t ~pc:0x1004 ~cls:I.Load ~access:(Tr.Read 0xBEEF) ();
  Tr.add t ~pc:0x1008 ~cls:I.Store ~access:(Tr.Write 0xCAFE) ();
  Tr.add t ~pc:0x100C ~cls:I.Br_taken ();
  Tr.add_packed t ~pc:0x1010 ~cls:I.Jsr ~kind:Tr.kind_none ~addr:0
    ~fid:(Tr.intern t "f");
  Alcotest.(check string) "text"
    "1000 alu\n1004 ld R beef\n1008 st W cafe\n100c bt\n1010 jsr @f\n"
    (Tr.to_string t);
  let t' = trace_of_text (Tr.to_string t) in
  Alcotest.(check int) "length" (Tr.length t) (Tr.length t');
  for i = 0 to Tr.length t - 1 do
    Alcotest.(check bool) "event" true (Tr.get t i = Tr.get t' i);
    Alcotest.(check string) "function" (func_of t i) (func_of t' i)
  done

let test_trace_roundtrip_real () =
  let r =
    P.Engine.run
      (P.Engine.Spec.default ~stack:P.Engine.Tcpip
         ~config:(P.Config.make P.Config.Std))
  in
  let t = r.P.Engine.trace in
  let t' = trace_of_text (Tr.to_string t) in
  Alcotest.(check int) "length preserved" (Tr.length t) (Tr.length t');
  for i = 0 to Tr.length t - 1 do
    if Tr.get t i <> Tr.get t' i || func_of t i <> func_of t' i then
      Alcotest.failf "event %d differs after the round trip" i
  done;
  (* the read-back trace analyzes identically *)
  let p = Protolat_machine.Params.default in
  let a = Protolat_machine.Perf.cold p t in
  let b = Protolat_machine.Perf.cold p t' in
  Alcotest.(check (float 1e-9)) "same mCPI" a.Protolat_machine.Perf.mcpi
    b.Protolat_machine.Perf.mcpi

(* ----- ablation tables ----------------------------------------------------------- *)

let test_ablation_tables_render () =
  List.iter
    (fun t ->
      Alcotest.(check bool) "renders" true
        (String.length (Protolat_util.Table.render t) > 100))
    [ P.Ablation.classifier (); P.Ablation.future_machine () ]

let test_cache_size_convergence () =
  (* with a 32KB i-cache the whole path fits: STD and ALL converge *)
  let params kb =
    { Protolat_machine.Params.default with
      Protolat_machine.Params.icache_bytes = kb * 1024 }
  in
  let gain kb =
    let r v =
      Protolat_util.Stats.mean
        (P.Engine.run
           (P.Engine.Spec.make ~params:(params kb) ~stack:P.Engine.Tcpip
              ~config:(P.Config.make v) ()))
          .P.Engine.rtts
    in
    r P.Config.Std -. r P.Config.All
  in
  Alcotest.(check bool) "techniques matter less with a huge cache" true
    (gain 32 < gain 8 +. 1.0)

(* ----- TCP teardown / Nagle / persist ---------------------------------------- *)

let test_full_close_both_sides () =
  let p = pair () in
  let server_session = ref None in
  T.Tcp.listen p.T.Stack.server.T.Stack.tcp ~port:5002 ~receive:(fun s _ ->
      server_session := Some s);
  let client_session =
    T.Tcp.connect p.T.Stack.client.T.Stack.tcp ~local_port:3001
      ~remote_ip:p.T.Stack.server.T.Stack.ip_addr ~remote_port:5002
      ~receive:(fun _ _ -> ())
  in
  run_sim ~us:50_000.0 p;
  T.Tcp.send client_session (Bytes.of_string "hi");
  run_sim ~us:50_000.0 p;
  (* active close from the client, passive close from the server *)
  T.Tcp.close client_session;
  run_sim ~us:20_000.0 p;
  (match !server_session with
  | Some s ->
    Alcotest.(check bool) "server in CLOSE_WAIT" true
      (T.Tcp.state s = T.Tcb.Close_wait);
    T.Tcp.close s
  | None -> Alcotest.fail "server never delivered");
  run_sim ~us:50_000.0 p;
  (* the client sits in TIME_WAIT, then expires to CLOSED and unbinds *)
  Alcotest.(check bool) "client TIME_WAIT or closed" true
    (match T.Tcp.state client_session with
    | T.Tcb.Time_wait | T.Tcb.Closed -> true
    | _ -> false);
  run_sim ~us:100_000.0 p;
  Alcotest.(check bool) "client CLOSED after 2MSL" true
    (T.Tcp.state client_session = T.Tcb.Closed);
  (match !server_session with
  | Some s ->
    Alcotest.(check bool) "server CLOSED" true (T.Tcp.state s = T.Tcb.Closed)
  | None -> ());
  Alcotest.(check int) "client pcb unbound" 0
    (T.Tcp.session_count p.T.Stack.client.T.Stack.tcp)

let test_nagle_coalesces () =
  let segments nodelay =
    let p = pair () in
    let session, received = bulk_setup p ~bytes:0 in
    T.Tcp.set_nodelay session nodelay;
    let before = (T.Tcp.tcb session).T.Tcb.segments_out in
    (* three small writes back to back: with Nagle only the first leaves
       immediately, the rest coalesce behind the outstanding ack *)
    for _ = 1 to 3 do
      T.Tcp.send session (Bytes.make 10 'n')
    done;
    let burst = (T.Tcp.tcb session).T.Tcb.segments_out - before in
    run_sim ~us:2.0e6 p;
    Alcotest.(check int) "all bytes arrive eventually" 30
      (Buffer.length received);
    burst
  in
  Alcotest.(check int) "nodelay sends all three at once" 3 (segments true);
  Alcotest.(check int) "nagle holds the tail" 1 (segments false)

let test_persist_timer () =
  let p = pair () in
  let server_session = ref None in
  let received = Buffer.create 64 in
  T.Tcp.listen p.T.Stack.server.T.Stack.tcp ~port:5003 ~receive:(fun s data ->
      server_session := Some s;
      Buffer.add_bytes received data);
  let session =
    T.Tcp.connect p.T.Stack.client.T.Stack.tcp ~local_port:3002
      ~remote_ip:p.T.Stack.server.T.Stack.ip_addr ~remote_port:5003
      ~receive:(fun _ _ -> ())
  in
  run_sim ~us:50_000.0 p;
  (* prime the server session, then slam its window shut *)
  T.Tcp.send session (Bytes.of_string "x");
  run_sim ~us:10_000.0 p;
  (match !server_session with
  | Some s -> (T.Tcp.tcb s).T.Tcb.rcv_wnd <- 0
  | None -> Alcotest.fail "no server session");
  T.Tcp.send session (Bytes.make 30000 'z');
  run_sim ~us:60_000.0 p;
  let probes_mid = T.Tcp.persist_probes p.T.Stack.client.T.Stack.tcp in
  Alcotest.(check bool) "persist probes fired under zero window" true
    (probes_mid > 0);
  Alcotest.(check bool) "transfer stalled" true
    (Buffer.length received < 30001);
  (* reopen the window: the transfer completes *)
  (match !server_session with
  | Some s -> (T.Tcp.tcb s).T.Tcb.rcv_wnd <- 4096
  | None -> ());
  run_sim ~us:500_000.0 p;
  Alcotest.(check int) "all delivered after reopen" 30001
    (Buffer.length received)

(* ----- additional edge cases -------------------------------------------------- *)

let test_chan_busy_rejected () =
  let rp =
    Protolat_rpc.Rstack.pair_of_net
      (Protolat_rpc.Rstack.make_net ~topology:(Ns.Topology.pair ()) ())
  in
  let chan = rp.Protolat_rpc.Rstack.client.Protolat_rpc.Rstack.chan in
  let msg () =
    let m = Xk.Msg.alloc (Xk.Simmem.create ()) ~headroom:64 0 in
    Xk.Msg.set_payload m Bytes.empty;
    m
  in
  Protolat_rpc.Chan.call chan ~chan:42 (msg ()) ~reply:(fun _ -> ());
  Alcotest.(check bool) "second call on a busy channel fails" true
    (try
       Protolat_rpc.Chan.call chan ~chan:42 (msg ()) ~reply:(fun _ -> ());
       false
     with Failure _ -> true)

let test_vchan_grows_pool () =
  (* more concurrent calls than preallocated channels: VCHAN grows *)
  let rp =
    Protolat_rpc.Rstack.pair_of_net
      (Protolat_rpc.Rstack.make_net ~topology:(Ns.Topology.pair ()) ())
  in
  let vchan = rp.Protolat_rpc.Rstack.client.Protolat_rpc.Rstack.vchan in
  let replies = ref 0 in
  for _ = 1 to 10 do
    let m = Xk.Msg.alloc (Xk.Simmem.create ()) ~headroom:64 0 in
    Xk.Msg.set_payload m (Bytes.make 2 'q');
    Protolat_rpc.Vchan.call vchan m ~reply:(fun _ -> incr replies)
  done;
  (* no server registered for these raw calls; what matters is that ten
     channels were handed out without failure *)
  Alcotest.(check int) "pool exhausted then grown" 0
    (Protolat_rpc.Vchan.free_channels vchan)

let test_map_chain_collision () =
  (* force two keys into one bucket (1-bucket table) and check chaining *)
  let m = Xk.Map.create ~buckets:1 () in
  Xk.Map.bind m "alpha" 1;
  Xk.Map.bind m "beta" 2;
  Alcotest.(check (option int)) "first" (Some 1) (Xk.Map.resolve m "alpha");
  Alcotest.(check (option int)) "second" (Some 2) (Xk.Map.resolve m "beta");
  Alcotest.(check bool) "unbind one" true (Xk.Map.unbind m "alpha");
  Alcotest.(check (option int)) "other survives" (Some 2)
    (Xk.Map.resolve m "beta")

let test_msg_set_payload_grows () =
  let m = Xk.Msg.alloc (Xk.Simmem.create ()) ~headroom:16 8 in
  Xk.Msg.set_payload m (Bytes.make 4096 'G');
  Alcotest.(check int) "grew" 4096 (Xk.Msg.len m);
  Xk.Msg.push m (Bytes.of_string "HDR");
  Alcotest.(check int) "headroom preserved" 4099 (Xk.Msg.len m)

let test_udp_fragmented_datagram () =
  (* UDP checksum must verify across IP reassembly *)
  let p = pair () in
  let got = ref 0 in
  T.Udp.bind p.T.Stack.server.T.Stack.udp ~port:8
    (fun ~src_ip:_ ~src_port:_ data -> got := Bytes.length data);
  T.Udp.send p.T.Stack.client.T.Stack.udp ~src_port:1
    ~dst_ip:p.T.Stack.server.T.Stack.ip_addr ~dst_port:8 (Bytes.make 8192 'u');
  run_sim p;
  Alcotest.(check int) "reassembled udp intact" 8192 !got;
  Alcotest.(check int) "no checksum failures" 0
    (T.Udp.checksum_failures p.T.Stack.server.T.Stack.udp)

let test_simultaneous_pings_two_connections () =
  (* two independent TCP connections between the same hosts share the
     demux map without crosstalk *)
  let p = pair () in
  let echo port =
    T.Tcp.listen p.T.Stack.server.T.Stack.tcp ~port ~receive:(fun s data ->
        T.Tcp.send s data)
  in
  echo 7001;
  echo 7002;
  let mk port tag =
    let buf = Buffer.create 16 in
    let s =
      T.Tcp.connect p.T.Stack.client.T.Stack.tcp ~local_port:(port + 1000)
        ~remote_ip:p.T.Stack.server.T.Stack.ip_addr ~remote_port:port
        ~receive:(fun _ d -> Buffer.add_bytes buf d)
    in
    (s, buf, tag)
  in
  let s1, b1, t1 = mk 7001 "one" in
  let s2, b2, t2 = mk 7002 "two" in
  run_sim ~us:60_000.0 p;
  T.Tcp.send s1 (Bytes.of_string t1);
  T.Tcp.send s2 (Bytes.of_string t2);
  run_sim ~us:2.0e6 p;
  Alcotest.(check string) "conn1 echo" "one" (Buffer.contents b1);
  Alcotest.(check string) "conn2 echo" "two" (Buffer.contents b2);
  Alcotest.(check int) "two sessions" 2
    (T.Tcp.session_count p.T.Stack.client.T.Stack.tcp)

(* A message shorter than the header its layer parses (a 3-byte frame
   under BLAST, a 3-byte message under BID, a 5-byte one under CHAN) is a
   counted drop at that layer, not an exception out of the simulation,
   and a call on the same pair afterwards still completes. *)
let test_rpc_drops_short_headers () =
  let module R = Protolat_rpc in
  let rp =
    R.Rstack.pair_of_net (R.Rstack.make_net ~topology:(Ns.Topology.pair ()) ())
  in
  let client = rp.R.Rstack.client and server = rp.R.Rstack.server in
  let msg n =
    Xk.Msg.of_string client.R.Rstack.env.Ns.Host_env.simmem (String.make n 'x')
  in
  let run () =
    ignore (Ns.Sim.run ~until:(Ns.Sim.now rp.R.Rstack.sim +. 5.0e6) rp.R.Rstack.sim)
  in
  let dst = server.R.Rstack.mac in
  let drops () =
    ( R.Blast.short_drops server.R.Rstack.blast,
      R.Bid.short_drops server.R.Rstack.bid,
      R.Chan.short_drops server.R.Rstack.chan )
  in
  let check_drops what want =
    let b, i, c = drops () in
    Alcotest.(check (list int)) what want [ b; i; c ]
  in
  Ns.Netdev.send client.R.Rstack.netdev ~dst ~ethertype:R.Rstack.ethertype_rpc
    (msg 3);
  run ();
  check_drops "a 3-byte frame dropped by BLAST" [ 1; 0; 0 ];
  R.Blast.push client.R.Rstack.blast ~dst (msg 3);
  run ();
  check_drops "a 3-byte message dropped by BID" [ 1; 1; 0 ];
  R.Bid.push client.R.Rstack.bid ~dst (msg 5);
  run ();
  check_drops "a 5-byte message dropped by CHAN" [ 1; 1; 1 ];
  R.Mselect.register server.R.Rstack.mselect ~client:7 (fun body ~reply ->
      reply body);
  let got = ref "" in
  R.Mselect.call client.R.Rstack.mselect ~client:7
    (Xk.Msg.of_string client.R.Rstack.env.Ns.Host_env.simmem "ping")
    ~reply:(fun d -> got := Bytes.to_string d);
  run ();
  Alcotest.(check string) "a later call completes" "ping" !got;
  check_drops "no further drops" [ 1; 1; 1 ]

(* A frame shorter than an Ethernet header (5 bytes, then none) is a
   counted drop in the receiving driver of either stack, not an exception
   out of the simulation, and a later exchange on the same pair still
   completes. *)
let test_eth_drops_short_frames () =
  let module R = Protolat_rpc in
  let short lance ~src ~dst =
    List.iter
      (fun n ->
        Ns.Lance.transmit lance
          { Ns.Ether.dst; src; ethertype = T.Stack.ethertype_ip;
            payload = Bytes.make n 'x' })
      [ 5; 0 ]
  in
  let p = pair () in
  let client = p.T.Stack.client and server = p.T.Stack.server in
  short client.T.Stack.lance ~src:client.T.Stack.mac ~dst:server.T.Stack.mac;
  run_sim p;
  Alcotest.(check int) "tcpip: both frames dropped" 2
    (Ns.Netdev.short_drops server.T.Stack.netdev);
  T.Tcp.listen server.T.Stack.tcp ~port:7 ~receive:(fun s data ->
      T.Tcp.send s data);
  let got = ref "" in
  let session =
    T.Tcp.connect client.T.Stack.tcp ~local_port:1024
      ~remote_ip:server.T.Stack.ip_addr ~remote_port:7
      ~receive:(fun _ data -> got := Bytes.to_string data)
  in
  run_sim ~us:100_000.0 p;
  T.Tcp.send session (Bytes.of_string "ping");
  run_sim p;
  Alcotest.(check string) "tcpip: a later exchange completes" "ping" !got;
  Alcotest.(check int) "tcpip: no further drops" 2
    (Ns.Netdev.short_drops server.T.Stack.netdev);
  let rp =
    R.Rstack.pair_of_net (R.Rstack.make_net ~topology:(Ns.Topology.pair ()) ())
  in
  let client = rp.R.Rstack.client and server = rp.R.Rstack.server in
  let run () =
    ignore (Ns.Sim.run ~until:(Ns.Sim.now rp.R.Rstack.sim +. 5.0e6) rp.R.Rstack.sim)
  in
  short client.R.Rstack.lance ~src:client.R.Rstack.mac ~dst:server.R.Rstack.mac;
  run ();
  Alcotest.(check int) "rpc: both frames dropped" 2
    (Ns.Netdev.short_drops server.R.Rstack.netdev);
  R.Mselect.register server.R.Rstack.mselect ~client:7 (fun body ~reply ->
      reply body);
  let got = ref "" in
  R.Mselect.call client.R.Rstack.mselect ~client:7
    (Xk.Msg.of_string client.R.Rstack.env.Ns.Host_env.simmem "ping")
    ~reply:(fun d -> got := Bytes.to_string d);
  run ();
  Alcotest.(check string) "rpc: a later call completes" "ping" !got;
  Alcotest.(check int) "rpc: no further drops" 2
    (Ns.Netdev.short_drops server.R.Rstack.netdev)

let suite =
  ( "extensions",
    [ Alcotest.test_case "udp roundtrip" `Quick test_udp_roundtrip;
      Alcotest.test_case "udp unbound port" `Quick
        test_udp_unbound_port_dropped;
      Alcotest.test_case "udp port conflict" `Quick test_udp_port_conflict;
      Alcotest.test_case "ip fragmentation" `Quick
        test_ip_fragmentation_roundtrip;
      QCheck_alcotest.to_alcotest prop_ip_fragmentation_sizes;
      Alcotest.test_case "ip drops malformed headers" `Quick
        test_ip_drops_malformed;
      Alcotest.test_case "tcp drops segments shorter than a header" `Quick
        test_tcp_drops_short_segments;
      Alcotest.test_case "tcp bulk transfer" `Quick test_bulk_transfer;
      Alcotest.test_case "tcp bulk with loss" `Quick
        test_bulk_transfer_with_loss;
      Alcotest.test_case "classifier match" `Quick test_classifier_match;
      Alcotest.test_case "classifier rule order" `Quick
        test_classifier_rule_order;
      Alcotest.test_case "classifier ablation" `Slow
        test_classifier_ablation_direction;
      Alcotest.test_case "arp resolve" `Quick test_arp_resolve;
      Alcotest.test_case "arp shared request" `Quick test_arp_shared_request;
      Alcotest.test_case "arp static entry" `Quick test_arp_static_entry;
      Alcotest.test_case "tcp over arp" `Quick test_tcp_over_arp;
      Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
      Alcotest.test_case "trace roundtrip real" `Quick
        test_trace_roundtrip_real;
      Alcotest.test_case "throughput wire bound" `Slow
        test_throughput_wire_bound;
      Alcotest.test_case "refresh reduces cpu" `Slow test_refresh_reduces_cpu;
      Alcotest.test_case "ablation tables render" `Slow
        test_ablation_tables_render;
      Alcotest.test_case "cache size convergence" `Slow
        test_cache_size_convergence;
      Alcotest.test_case "full close both sides" `Quick
        test_full_close_both_sides;
      Alcotest.test_case "nagle coalesces" `Quick test_nagle_coalesces;
      Alcotest.test_case "persist timer" `Quick test_persist_timer;
      Alcotest.test_case "chan busy rejected" `Quick test_chan_busy_rejected;
      Alcotest.test_case "vchan grows pool" `Quick test_vchan_grows_pool;
      Alcotest.test_case "map chain collision" `Quick test_map_chain_collision;
      Alcotest.test_case "msg set_payload grows" `Quick
        test_msg_set_payload_grows;
      Alcotest.test_case "udp fragmented datagram" `Quick
        test_udp_fragmented_datagram;
      Alcotest.test_case "two connections" `Quick
        test_simultaneous_pings_two_connections;
      Alcotest.test_case "rpc demux counts short headers as drops" `Quick
        test_rpc_drops_short_headers;
      Alcotest.test_case "ethernet drops frames shorter than a header" `Quick
        test_eth_drops_short_frames ] )



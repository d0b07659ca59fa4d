module T = Protolat_tcpip
module Ns = Protolat_netsim
module Xk = Protolat_xkernel
module Checksum = T.Checksum
module Seq = T.Seq

(* ----- checksum ----------------------------------------------------------- *)

let test_checksum_rfc_example () =
  (* RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum 2ddf0, cksum ~ddf2 *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  Alcotest.(check int) "raw sum" 0x2DDF0 (Checksum.sum b 0 8);
  (* folded sum ddf2, complemented 220d *)
  Alcotest.(check int) "complemented" 0x220D (Checksum.compute b 0 8);
  Alcotest.(check bool) "verify with embedded" true
    (let c = Checksum.compute b 0 8 in
     let full = Bytes.cat b (Bytes.of_string (Printf.sprintf "%c%c" (Char.chr (c lsr 8)) (Char.chr (c land 0xFF)))) in
     Checksum.verify full 0 10)

let prop_checksum_verify =
  QCheck.Test.make ~name:"computed checksum always verifies" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_range 1 200))
    (fun s ->
      let data = Bytes.of_string s in
      let c = Checksum.compute data 0 (Bytes.length data) in
      let tail = Bytes.create 2 in
      Bytes.set tail 0 (Char.chr (c lsr 8 land 0xFF));
      Bytes.set tail 1 (Char.chr (c land 0xFF));
      (* even-length data: appending the checksum must verify *)
      Bytes.length data mod 2 = 1
      || Checksum.verify (Bytes.cat data tail) 0 (Bytes.length data + 2))

let prop_checksum_detects_corruption =
  QCheck.Test.make ~name:"checksum detects single-byte corruption" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 2 100)) small_nat)
    (fun (s, pos) ->
      QCheck.assume (String.length s mod 2 = 0);
      let data = Bytes.of_string s in
      let c = Checksum.compute data 0 (Bytes.length data) in
      let tail = Bytes.create 2 in
      Bytes.set tail 0 (Char.chr (c lsr 8 land 0xFF));
      Bytes.set tail 1 (Char.chr (c land 0xFF));
      let full = Bytes.cat data tail in
      let i = pos mod Bytes.length data in
      let orig = Bytes.get full i in
      Bytes.set full i (Char.chr (Char.code orig lxor 0x5A));
      not (Checksum.verify full 0 (Bytes.length full)))

(* ----- headers ----------------------------------------------------------- *)

let prop_ip_hdr_roundtrip =
  QCheck.Test.make ~name:"IP header marshal roundtrip" ~count:200
    QCheck.(quad (int_bound 0xFFFF) (int_bound 0xFF) (int_bound 0xFFFFFF) (int_bound 0xFFFFFF))
    (fun (len, proto, src, dst) ->
      let h = T.Ip_hdr.make ~total_len:len ~proto ~src ~dst () in
      let b = T.Ip_hdr.to_bytes h in
      let h' = T.Ip_hdr.of_bytes b in
      T.Ip_hdr.valid_checksum b
      && h'.T.Ip_hdr.total_len = len
      && h'.T.Ip_hdr.proto = proto
      && h'.T.Ip_hdr.src = src
      && h'.T.Ip_hdr.dst = dst)

let prop_tcp_hdr_roundtrip =
  QCheck.Test.make ~name:"TCP header marshal roundtrip" ~count:200
    QCheck.(quad (int_bound 0xFFFF) (int_bound 0xFFFF) (int_bound 0x3FFFFFFF) (int_bound 0x3F))
    (fun (sport, dport, seq, flags) ->
      let h = T.Tcp_hdr.make ~flags ~sport ~dport ~seq ~ack:(seq / 2) () in
      let h' = T.Tcp_hdr.of_bytes (T.Tcp_hdr.to_bytes h) in
      h'.T.Tcp_hdr.sport = sport
      && h'.T.Tcp_hdr.dport = dport
      && h'.T.Tcp_hdr.seq = seq
      && h'.T.Tcp_hdr.flags = flags)

let test_ip_hdr_bad_version () =
  Alcotest.check_raises "bad version"
    (Invalid_argument "Ip_hdr.of_bytes: bad version/IHL") (fun () ->
      ignore (T.Ip_hdr.of_bytes (Bytes.make 20 '\x60')))

(* ----- sequence arithmetic ------------------------------------------------ *)

let test_seq_wraparound () =
  let near_max = 0xFFFF_FFF0 in
  Alcotest.(check int) "add wraps" 0x10 (Seq.add near_max 0x20);
  Alcotest.(check bool) "lt across wrap" true (Seq.lt near_max 0x10);
  Alcotest.(check bool) "gt across wrap" true (Seq.gt 0x10 near_max);
  Alcotest.(check int) "sub across wrap" 0x20 (Seq.sub 0x10 near_max);
  Alcotest.(check bool) "window across wrap" true
    (Seq.in_window ~seq:0x5 ~lo:near_max ~size:0x40)

let prop_seq_antisymmetric =
  QCheck.Test.make ~name:"seq lt/gt antisymmetric" ~count:300
    QCheck.(pair (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF))
    (fun (a, b) ->
      if a = b then (not (Seq.lt a b)) && not (Seq.gt a b)
      else Seq.lt a b <> Seq.gt a b || Seq.sub a b = -0x8000_0000)

(* ----- TCB ----------------------------------------------------------------- *)

let test_rtt_estimator () =
  let cb =
    T.Tcb.create (Xk.Simmem.create ()) ~local_ip:1 ~local_port:1 ~remote_ip:2
      ~remote_port:2 ~iss:100
  in
  T.Tcb.update_rtt cb 4;
  Alcotest.(check int) "first sample srtt = rtt<<3" (4 lsl 3) cb.T.Tcb.srtt;
  let rto1 = T.Tcb.rto_ticks cb in
  for _ = 1 to 20 do
    T.Tcb.update_rtt cb 1
  done;
  Alcotest.(check bool) "rto adapts downward" true (T.Tcb.rto_ticks cb <= rto1);
  Alcotest.(check bool) "rto floor" true (T.Tcb.rto_ticks cb >= 2)

let test_tcb_key () =
  let k1 = T.Tcb.key ~local_port:80 ~remote_ip:5 ~remote_port:1000 in
  let k2 = T.Tcb.key ~local_port:80 ~remote_ip:5 ~remote_port:1001 in
  Alcotest.(check bool) "distinct" true (k1 <> k2)

(* The demux keys are built without Printf but must stay byte-identical to
   the formats they replaced: map buckets hash the text.  [%x] prints a
   negative int as unsigned and never truncates a wide one. *)
let hex_boundaries =
  [ 0; 1; 0xf; 0x10; 0xff; 0x100; 0xfff; 0x1000; 0xffff; 0x10000; 0xffffff;
    0xffff_ffff; 0x1_0000_0000; max_int; min_int; -1; -0x10; -0x10000 ]

let keys_match a b c =
  T.Tcb.key ~local_port:a ~remote_ip:b ~remote_port:c
  = Printf.sprintf "%04x:%08x:%04x" a b c
  && T.Ip.protok a = Printf.sprintf "ipp%02x" a
  && Ns.Netdev.etk a = Printf.sprintf "%04x" a

let test_demux_keys_boundaries () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun c ->
              if not (keys_match a b c) then
                Alcotest.failf "keys differ from Printf at %d %d %d" a b c)
            hex_boundaries)
        hex_boundaries)
    hex_boundaries

let prop_demux_keys_match_printf =
  let v =
    QCheck.(
      oneof
        [ oneofl hex_boundaries; int; int_range 0 0xffff;
          int_range (-0x10000) 0x1_0000_0000 ])
  in
  QCheck.Test.make ~name:"demux keys match their Printf formats" ~count:500
    (QCheck.triple v v v)
    (fun (a, b, c) -> keys_match a b c)

(* ----- end-to-end TCP --------------------------------------------------------- *)

let establish ?client_opts ?server_opts ~rounds () =
  let copts = Option.value ~default:T.Opts.improved client_opts in
  let sopts = Option.value ~default:T.Opts.improved server_opts in
  let pair =
    T.Stack.pair_of_net
      (T.Stack.make_net
         ~opts_for:(fun i -> if i = 0 then copts else sopts)
         ~topology:(Ns.Topology.pair ()) ())
  in
  let c, s = T.Stack.establish pair ~rounds in
  (pair, c, s)

let test_handshake () =
  let pair, client, _ = establish ~rounds:1 () in
  match T.Tcptest.session client with
  | Some s ->
    Alcotest.(check string) "established" "ESTABLISHED"
      (T.Tcb.state_string (T.Tcp.state s));
    Alcotest.(check int) "one session each side" 1
      (T.Tcp.session_count pair.T.Stack.client.T.Stack.tcp)
  | None -> Alcotest.fail "no session"

let run_pingpong ?client_opts ?server_opts rounds =
  let pair, client, _ = establish ?client_opts ?server_opts ~rounds () in
  T.Tcptest.start client;
  ignore (Ns.Sim.run ~until:(Ns.Sim.now pair.T.Stack.sim +. 4.0e6) pair.T.Stack.sim);
  (pair, client)

let test_pingpong () =
  let pair, client = run_pingpong 20 in
  Alcotest.(check int) "all rounds" 20 (T.Tcptest.rounds_completed client);
  Alcotest.(check int) "no retransmits" 0
    (T.Tcp.retransmits pair.T.Stack.client.T.Stack.tcp);
  Alcotest.(check int) "no drops" 0
    (T.Ip.packets_dropped pair.T.Stack.client.T.Stack.ip)

let test_pingpong_all_opts () =
  (* every §2.2 toggle combination of interest still works end to end *)
  List.iter
    (fun opts ->
      let _, client = run_pingpong ~client_opts:opts ~server_opts:opts 5 in
      Alcotest.(check int) "rounds" 5 (T.Tcptest.rounds_completed client))
    [ T.Opts.original;
      T.Opts.improved;
      { T.Opts.improved with T.Opts.header_prediction = true };
      { T.Opts.improved with T.Opts.avoid_muldiv = false };
      { T.Opts.improved with T.Opts.usc_lance = false } ]

let test_retransmission_on_loss () =
  let pair =
    T.Stack.pair_of_net (T.Stack.make_net ~topology:(Ns.Topology.pair ()) ())
  in
  let client, _ = T.Stack.establish pair ~rounds:3 in
  (* drop the first data frame on the wire *)
  let dropped = ref false in
  Ns.Ether.Link.set_filter pair.T.Stack.link (fun f ->
      if (not !dropped) && Bytes.length f.Ns.Ether.payload >= 55 then begin
        dropped := true;
        true
      end
      else false);
  T.Tcptest.start client;
  ignore (Ns.Sim.run ~until:(Ns.Sim.now pair.T.Stack.sim +. 6.0e6) pair.T.Stack.sim);
  Alcotest.(check bool) "frame was dropped" true !dropped;
  Alcotest.(check int) "rounds complete despite loss" 3
    (T.Tcptest.rounds_completed client);
  Alcotest.(check bool) "retransmitted" true
    (T.Tcp.retransmits pair.T.Stack.client.T.Stack.tcp > 0)

let test_delayed_ack_one_way () =
  (* a one-way send (no application reply) must still get acked: the
     delayed-ack timer fires *)
  let pair =
    T.Stack.pair_of_net (T.Stack.make_net ~topology:(Ns.Topology.pair ()) ())
  in
  let got = ref 0 in
  let server_tcp = pair.T.Stack.server.T.Stack.tcp in
  T.Tcp.listen server_tcp ~port:9 ~receive:(fun _ _ -> incr got);
  let session =
    T.Tcp.connect pair.T.Stack.client.T.Stack.tcp ~local_port:2000
      ~remote_ip:pair.T.Stack.server.T.Stack.ip_addr ~remote_port:9
      ~receive:(fun _ _ -> ())
  in
  ignore (Ns.Sim.run ~until:50_000.0 pair.T.Stack.sim);
  Alcotest.(check string) "established" "ESTABLISHED"
    (T.Tcb.state_string (T.Tcp.state session));
  T.Tcp.send session (Bytes.of_string "one-way");
  ignore (Ns.Sim.run ~until:5.0e6 pair.T.Stack.sim);
  Alcotest.(check int) "delivered" 1 !got;
  let cb = T.Tcp.tcb session in
  Alcotest.(check bool) "acked (delayed ack arrived)" true
    (Seq.geq cb.T.Tcb.snd_una cb.T.Tcb.snd_nxt);
  Alcotest.(check int) "no spurious retransmit" 0
    (T.Tcp.retransmits pair.T.Stack.client.T.Stack.tcp)

let test_fin_teardown () =
  let pair, client = run_pingpong 2 in
  match T.Tcptest.session client with
  | None -> Alcotest.fail "no session"
  | Some s ->
    T.Tcp.close s;
    ignore (Ns.Sim.run ~until:(Ns.Sim.now pair.T.Stack.sim +. 1.0e6) pair.T.Stack.sim);
    let st = T.Tcp.state s in
    Alcotest.(check bool) "left ESTABLISHED" true (st <> T.Tcb.Established)

let test_window_update_variants_agree () =
  (* the 35% mul/div and 33% shift/add thresholds are operationally close *)
  let run opts =
    let _, client =
      run_pingpong ~client_opts:opts ~server_opts:opts 10
    in
    T.Tcptest.rounds_completed client
  in
  Alcotest.(check int) "same behaviour" (run T.Opts.improved)
    (run { T.Opts.improved with T.Opts.avoid_muldiv = false })

let test_bidirectional_seq_progress () =
  let _, client = run_pingpong 8 in
  match T.Tcptest.session client with
  | None -> Alcotest.fail "no session"
  | Some s ->
    let cb = T.Tcp.tcb s in
    (* 8 pings of 1 byte each, plus the SYN *)
    Alcotest.(check int) "snd progress" 9 (Seq.sub cb.T.Tcb.snd_nxt cb.T.Tcb.iss);
    Alcotest.(check int) "rcv progress" 9 (Seq.sub cb.T.Tcb.rcv_nxt cb.T.Tcb.irs);
    (* the client additionally sends the SYN, the handshake ACK and a final
       delayed ack, so it emits a few more segments than it receives *)
    let extra = cb.T.Tcb.segments_out - cb.T.Tcb.segments_in in
    Alcotest.(check bool) "segment balance" true (extra >= 1 && extra <= 3)

(* ----- meter staging ------------------------------------------------------ *)

module Site = Xk.Meter.Site

(* One report as a recording meter sees it: what it is, its site, whether
   a cold block was triggered, and the ranges staged since the report
   before it. *)
type report = {
  what : string;
  site : Site.t;
  triggered : bool;
  reads : (int * int) list;
  writes : (int * int) list;
}

(* A meter whose [read]/[write] collect ranges and whose every report logs
   itself with the collected ranges, then clears them. *)
let recorder () =
  let log = ref [] and reads = ref [] and writes = ref [] in
  let report what triggered site =
    log :=
      { what; site; triggered; reads = List.rev !reads;
        writes = List.rev !writes }
      :: !log;
    reads := [];
    writes := []
  in
  ( { Xk.Meter.enter = report "enter" false;
      leave = report "leave" false;
      read = (fun base len -> reads := (base, len) :: !reads);
      write = (fun base len -> writes := (base, len) :: !writes);
      block = report "block" false;
      cold = (fun ~triggered s -> report "cold" triggered s);
      call = report "call" false },
    fun () -> List.rev !log )

let cksum_base = 0x4000

(* What [Cksum_meter.sum] of a 200-byte buffer at [cksum_base] reports:
   three unrolled 64-byte iterations, each a triggered cold block reading
   its 64 bytes, then the two quads they leave, then the tail. *)
let expected_cksum_reports =
  let r ?(triggered = false) ?(reads = []) what site =
    { what; site; triggered; reads; writes = [] }
  in
  let fn = Site.fn "in_cksum" and blk = Site.block "in_cksum" in
  let unrolled off =
    r "cold" ~triggered:true ~reads:[ (cksum_base + off, 64) ]
      (Site.cold "in_cksum" "unrolled64")
  in
  let qloop off = r "block" ~reads:[ (cksum_base + off, 4) ] (blk "qloop") in
  [ r "enter" fn; r "block" (blk "head"); unrolled 0; unrolled 64;
    unrolled 128; qloop 192; qloop 196; r "block" (blk "tail"); r "leave" fn ]

let cksum_with m =
  let counters = T.Cksum_meter.counters (Protolat_obs.Metrics.create ()) in
  ignore
    (T.Cksum_meter.sum m ~counters ~sim_base:cksum_base (Bytes.make 200 'c') 0
       200)

let check_reports what want got =
  let show r =
    Printf.sprintf "%s %s/%d%s r[%s] w[%s]" r.what (Site.func r.site)
      (r.site :> int)
      (if r.triggered then " triggered" else "")
      (String.concat ";"
         (List.map (fun (b, l) -> Printf.sprintf "%#x+%d" b l) r.reads))
      (String.concat ";"
         (List.map (fun (b, l) -> Printf.sprintf "%#x+%d" b l) r.writes))
  in
  Alcotest.(check (list string)) what (List.map show want) (List.map show got)

(* The staging rule: a range is staged by [read]/[write] for the next
   report, and the checksum's reads reach the blocks that touch them. *)
let test_meter_staging () =
  let m, log = recorder () in
  cksum_with m;
  check_reports "checksum reports" expected_cksum_reports (log ())

let test_meter_both_staging () =
  let a, log_a = recorder () and b, log_b = recorder () in
  cksum_with (Xk.Meter.both a b);
  check_reports "first meter" expected_cksum_reports (log_a ());
  check_reports "second meter" expected_cksum_reports (log_b ())

(* ----- unmetered allocation ----------------------------------------------- *)

(* Minor-heap words per steady roundtrip of an unmetered pair: 1,000
   roundtrips after 50 warm-up ones.  [Gc.minor_words] counts the words
   allocated so far, young ones included. *)
let bare_roundtrip_words sim ~start ~completed =
  let warm = 50 and n = 1000 in
  let run_to k = while completed () < k && Ns.Sim.step sim do () done in
  start ();
  run_to warm;
  let w0 = Gc.minor_words () in
  run_to (warm + n);
  let w = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every roundtrip completed" (warm + n) (completed ());
  w /. float_of_int n

(* 1,333.7 words with a range list per metered block and a closure per
   metered function *)
let test_bare_roundtrip_allocation () =
  let p =
    T.Stack.pair_of_net (T.Stack.make_net ~topology:(Ns.Topology.pair ()) ())
  in
  let c, _ = T.Stack.establish p ~rounds:1050 in
  let w =
    bare_roundtrip_words p.T.Stack.sim
      ~start:(fun () -> T.Tcptest.start c)
      ~completed:(fun () -> T.Tcptest.rounds_completed c)
  in
  Alcotest.(check bool)
    (Printf.sprintf "an unmetered roundtrip allocates %.1f words, under 800" w)
    true (w < 800.0)

let suite =
  ( "tcpip",
    [ Alcotest.test_case "checksum rfc" `Quick test_checksum_rfc_example;
      QCheck_alcotest.to_alcotest prop_checksum_verify;
      QCheck_alcotest.to_alcotest prop_checksum_detects_corruption;
      QCheck_alcotest.to_alcotest prop_ip_hdr_roundtrip;
      QCheck_alcotest.to_alcotest prop_tcp_hdr_roundtrip;
      Alcotest.test_case "ip bad version" `Quick test_ip_hdr_bad_version;
      Alcotest.test_case "seq wraparound" `Quick test_seq_wraparound;
      QCheck_alcotest.to_alcotest prop_seq_antisymmetric;
      Alcotest.test_case "rtt estimator" `Quick test_rtt_estimator;
      Alcotest.test_case "tcb key" `Quick test_tcb_key;
      Alcotest.test_case "demux keys at hex boundaries" `Quick
        test_demux_keys_boundaries;
      QCheck_alcotest.to_alcotest prop_demux_keys_match_printf;
      Alcotest.test_case "handshake" `Quick test_handshake;
      Alcotest.test_case "pingpong" `Quick test_pingpong;
      Alcotest.test_case "pingpong all opts" `Quick test_pingpong_all_opts;
      Alcotest.test_case "retransmission on loss" `Quick
        test_retransmission_on_loss;
      Alcotest.test_case "delayed ack one-way" `Quick test_delayed_ack_one_way;
      Alcotest.test_case "fin teardown" `Quick test_fin_teardown;
      Alcotest.test_case "window update variants" `Quick
        test_window_update_variants_agree;
      Alcotest.test_case "bidirectional seq" `Quick
        test_bidirectional_seq_progress;
      Alcotest.test_case "meter stages ranges for the next report" `Quick
        test_meter_staging;
      Alcotest.test_case "meter both stages ranges in each meter" `Quick
        test_meter_both_staging;
      Alcotest.test_case "unmetered roundtrip allocates under 800 words"
        `Quick test_bare_roundtrip_allocation ] )

module R = Protolat_rpc
module Ns = Protolat_netsim
module Xk = Protolat_xkernel

(* ----- headers ----------------------------------------------------------- *)

let prop_blast_hdr_roundtrip =
  QCheck.Test.make ~name:"BLAST header roundtrip" ~count:200
    QCheck.(quad (int_bound 0xFFFFFF) (int_bound 0xFFFF) (int_bound 0xFFFF) bool)
    (fun (msg_id, ix, count, nack) ->
      let kind = if nack then R.Hdrs.Blast.Nack else R.Hdrs.Blast.Data in
      let h = { R.Hdrs.Blast.kind; msg_id; frag_ix = ix; frag_count = count; frag_len = 7 } in
      let b = R.Hdrs.Blast.to_bytes ~cksum:0x1234 h in
      let h' = R.Hdrs.Blast.of_bytes b in
      h' = h && R.Hdrs.Blast.cksum_of b = 0x1234)

let prop_chan_hdr_roundtrip =
  QCheck.Test.make ~name:"CHAN header roundtrip" ~count:200
    QCheck.(tup3 (int_bound 0xFFFFF) (int_bound 0xFFFFF) bool)
    (fun (chan, seq, reply) ->
      let kind = if reply then R.Hdrs.Chan.Reply else R.Hdrs.Chan.Request in
      let h = { R.Hdrs.Chan.kind; chan; seq; len = 3 } in
      R.Hdrs.Chan.of_bytes (R.Hdrs.Chan.to_bytes h) = h)

let test_bid_mux_roundtrip () =
  let b = { R.Hdrs.Bid.my_boot = 0xAABB; your_boot = 0xCCDD } in
  Alcotest.(check bool) "bid" true (R.Hdrs.Bid.of_bytes (R.Hdrs.Bid.to_bytes b) = b);
  Alcotest.(check int) "mux" 0x1F2 (R.Hdrs.Mux.of_bytes (R.Hdrs.Mux.to_bytes 0x1F2))

(* ----- end-to-end RPC ------------------------------------------------------ *)

let run_rpc ?(rounds = 10) ?(until = 5.0e6) ?before_start () =
  let pair =
    R.Rstack.pair_of_net (R.Rstack.make_net ~topology:(Ns.Topology.pair ()) ())
  in
  let client, server = R.Rstack.make_tests pair ~rounds in
  (match before_start with Some f -> f pair | None -> ());
  R.Xrpctest.start client;
  ignore (Ns.Sim.run ~until pair.R.Rstack.sim);
  (pair, client, server)

let test_rpc_pingpong () =
  let pair, client, server = run_rpc () in
  Alcotest.(check int) "client rounds" 10 (R.Xrpctest.rounds_completed client);
  Alcotest.(check int) "server served" 10 (R.Xrpctest.rounds_completed server);
  Alcotest.(check int) "no rexmit" 0
    (R.Chan.request_retransmits pair.R.Rstack.client.R.Rstack.chan);
  Alcotest.(check int) "no dups" 0
    (R.Chan.duplicate_requests pair.R.Rstack.server.R.Rstack.chan)

let test_boot_id_learned () =
  let pair, _, _ = run_rpc ~rounds:2 () in
  Alcotest.(check int) "server learned client boot" 0x1001
    (R.Bid.peer_boot pair.R.Rstack.server.R.Rstack.bid);
  Alcotest.(check int) "client learned server boot" 0x2001
    (R.Bid.peer_boot pair.R.Rstack.client.R.Rstack.bid)

let test_vchan_pool_reuse () =
  let pair, _, _ = run_rpc ~rounds:5 () in
  (* every call released its channel *)
  Alcotest.(check int) "all channels free" 8
    (R.Vchan.free_channels pair.R.Rstack.client.R.Rstack.vchan);
  Alcotest.(check int) "no outstanding calls" 0
    (R.Chan.outstanding pair.R.Rstack.client.R.Rstack.chan)

let test_request_retransmit_on_loss () =
  let dropped = ref false in
  let pair, client, _ =
    run_rpc ~rounds:3 ~until:8.0e6
      ~before_start:(fun pair ->
        Ns.Ether.Link.set_filter pair.R.Rstack.link (fun _ ->
            if !dropped then false
            else begin
              dropped := true;
              true
            end))
      ()
  in
  Alcotest.(check bool) "dropped one" true !dropped;
  Alcotest.(check int) "completed anyway" 3 (R.Xrpctest.rounds_completed client);
  Alcotest.(check bool) "chan retransmitted" true
    (R.Chan.request_retransmits pair.R.Rstack.client.R.Rstack.chan > 0)

let test_reply_loss_at_most_once () =
  (* drop the first reply: the client retransmits the request; the server
     must detect the duplicate and replay the cached reply, not re-execute *)
  let to_drop = ref 1 in
  let pair, client, server =
    run_rpc ~rounds:2 ~until:8.0e6
      ~before_start:(fun pair ->
        Ns.Ether.Link.set_filter pair.R.Rstack.link (fun f ->
            (* replies come from the server (station 1) *)
            if !to_drop > 0 && f.Ns.Ether.src = 0x0800_2B00_0012 then begin
              decr to_drop;
              true
            end
            else false))
      ()
  in
  Alcotest.(check int) "rounds done" 2 (R.Xrpctest.rounds_completed client);
  Alcotest.(check bool) "server saw a duplicate" true
    (R.Chan.duplicate_requests pair.R.Rstack.server.R.Rstack.chan > 0);
  (* at-most-once: the server executed each call exactly once *)
  Alcotest.(check int) "served exactly rounds" 2
    (R.Xrpctest.rounds_completed server)

(* ----- BLAST fragmentation --------------------------------------------------- *)

let blast_pair () =
  let sim = Ns.Sim.create () in
  let link = Ns.Ether.Link.create sim () in
  let mk station mac =
    let env = Ns.Host_env.create sim () in
    let lance = Ns.Lance.create sim env.Ns.Host_env.simmem link ~station () in
    let nd = Ns.Netdev.create env lance ~mac () in
    R.Blast.create env nd ~ethertype:0x801 ~map_cache_inline:true ()
  in
  (sim, link, mk 0 0x111, mk 1 0x222)

let test_blast_single_fragment () =
  let sim, _, a, b = blast_pair () in
  let got = ref None in
  R.Blast.set_upper b (fun ~src:_ msg ->
      got := Some (Bytes.to_string (Xk.Msg.contents msg)));
  let msg = Xk.Msg.of_string (Xk.Simmem.create ()) "small" in
  R.Blast.push a ~dst:0x222 msg;
  ignore (Ns.Sim.run sim);
  Alcotest.(check (option string)) "delivered" (Some "small") !got;
  Alcotest.(check int) "not fragmented" 0 (R.Blast.messages_fragmented a)

let big_payload n = String.init n (fun i -> Char.chr (i land 0xFF))

let test_blast_fragmentation_reassembly () =
  let sim, _, a, b = blast_pair () in
  let got = ref None in
  R.Blast.set_upper b (fun ~src:_ msg ->
      got := Some (Bytes.to_string (Xk.Msg.contents msg)));
  let payload = big_payload 5000 in
  let msg = Xk.Msg.of_string (Xk.Simmem.create ()) ~headroom:64 payload in
  R.Blast.push a ~dst:0x222 msg;
  ignore (Ns.Sim.run sim);
  Alcotest.(check bool) "fragmented" true (R.Blast.messages_fragmented a > 0);
  Alcotest.(check (option string)) "reassembled intact" (Some payload) !got

let test_blast_selective_retransmit () =
  let sim, link, a, b = blast_pair () in
  let got = ref None in
  R.Blast.set_upper b (fun ~src:_ msg ->
      got := Some (Bytes.to_string (Xk.Msg.contents msg)));
  (* drop the second fragment once *)
  let count = ref 0 in
  Ns.Ether.Link.set_filter link (fun f ->
      if f.Ns.Ether.ethertype = 0x801 then begin
        incr count;
        !count = 2
      end
      else false);
  let payload = big_payload 4000 in
  let msg = Xk.Msg.of_string (Xk.Simmem.create ()) ~headroom:64 payload in
  R.Blast.push a ~dst:0x222 msg;
  ignore (Ns.Sim.run sim);
  Alcotest.(check bool) "nack sent" true (R.Blast.nacks_sent b > 0);
  Alcotest.(check bool) "retransmitted" true (R.Blast.retransmissions a > 0);
  Alcotest.(check (option string)) "reassembled after loss" (Some payload) !got

let prop_blast_roundtrip =
  QCheck.Test.make ~name:"BLAST delivers arbitrary payloads intact" ~count:25
    QCheck.(string_of_size (QCheck.Gen.int_range 1 6000))
    (fun payload ->
      let sim, _, a, b = blast_pair () in
      let got = ref None in
      R.Blast.set_upper b (fun ~src:_ msg ->
          got := Some (Bytes.to_string (Xk.Msg.contents msg)));
      let msg = Xk.Msg.of_string (Xk.Simmem.create ()) ~headroom:64 payload in
      R.Blast.push a ~dst:0x222 msg;
      ignore (Ns.Sim.run sim);
      !got = Some payload)

let test_figure1_rpc () =
  let g = R.Rstack.figure1 () in
  Alcotest.(check int) "eight layers" 8 (List.length (Xk.Protocol.names g))

(* ----- non-empty payloads through the full RPC stack -------------------------- *)

let test_rpc_payload_roundtrip () =
  let pair =
    R.Rstack.pair_of_net (R.Rstack.make_net ~topology:(Ns.Topology.pair ()) ())
  in
  let seen = ref None in
  R.Mselect.register pair.R.Rstack.server.R.Rstack.mselect ~client:9
    (fun data ~reply ->
      seen := Some (Bytes.to_string data);
      reply (Bytes.of_string ("echo:" ^ Bytes.to_string data)));
  let answer = ref None in
  let msg = Xk.Msg.alloc (Xk.Simmem.create ()) ~headroom:64 0 in
  Xk.Msg.set_payload msg (Bytes.of_string "args(41+1)");
  R.Mselect.call pair.R.Rstack.client.R.Rstack.mselect ~client:9 msg
    ~reply:(fun data -> answer := Some (Bytes.to_string data));
  ignore (Ns.Sim.run ~until:1.0e6 pair.R.Rstack.sim);
  Alcotest.(check (option string)) "server saw the arguments"
    (Some "args(41+1)") !seen;
  Alcotest.(check (option string)) "client got the result"
    (Some "echo:args(41+1)") !answer

let test_rpc_large_payload_via_blast () =
  (* a reply big enough that BLAST fragments it under the RPC stack *)
  let pair =
    R.Rstack.pair_of_net (R.Rstack.make_net ~topology:(Ns.Topology.pair ()) ())
  in
  let big = String.init 4500 (fun i -> Char.chr (0x41 + (i mod 26))) in
  R.Mselect.register pair.R.Rstack.server.R.Rstack.mselect ~client:3
    (fun _ ~reply -> reply (Bytes.of_string big));
  let answer = ref None in
  let msg = Xk.Msg.alloc (Xk.Simmem.create ()) ~headroom:64 0 in
  Xk.Msg.set_payload msg Bytes.empty;
  R.Mselect.call pair.R.Rstack.client.R.Rstack.mselect ~client:3 msg
    ~reply:(fun data -> answer := Some (Bytes.to_string data));
  ignore (Ns.Sim.run ~until:5.0e6 pair.R.Rstack.sim);
  Alcotest.(check (option string)) "large reply reassembled" (Some big)
    !answer;
  Alcotest.(check bool) "blast fragmented the reply" true
    (R.Blast.messages_fragmented pair.R.Rstack.server.R.Rstack.blast > 0)

(* Minor-heap words per steady roundtrip of an unmetered pair, 1,000
   roundtrips after 50 warm-up ones: 1,171.7 with a range list per metered
   block and a closure per metered function. *)
let test_bare_roundtrip_allocation () =
  let pair =
    R.Rstack.pair_of_net (R.Rstack.make_net ~topology:(Ns.Topology.pair ()) ())
  in
  let c, _ = R.Rstack.make_tests pair ~rounds:1050 in
  let warm = 50 and n = 1000 in
  let run_to k =
    while R.Xrpctest.rounds_completed c < k && Ns.Sim.step pair.R.Rstack.sim do
      ()
    done
  in
  R.Xrpctest.start c;
  run_to warm;
  let w0 = Gc.minor_words () in
  run_to (warm + n);
  let w = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "every roundtrip completed" (warm + n)
    (R.Xrpctest.rounds_completed c);
  Alcotest.(check bool)
    (Printf.sprintf "an unmetered roundtrip allocates %.1f words, under 850" w)
    true (w < 850.0)

let suite =
  ( "rpc",
    [ QCheck_alcotest.to_alcotest prop_blast_hdr_roundtrip;
      QCheck_alcotest.to_alcotest prop_chan_hdr_roundtrip;
      Alcotest.test_case "bid/mux roundtrip" `Quick test_bid_mux_roundtrip;
      Alcotest.test_case "rpc pingpong" `Quick test_rpc_pingpong;
      Alcotest.test_case "boot ids learned" `Quick test_boot_id_learned;
      Alcotest.test_case "vchan pool reuse" `Quick test_vchan_pool_reuse;
      Alcotest.test_case "request retransmit" `Quick
        test_request_retransmit_on_loss;
      Alcotest.test_case "at-most-once on reply loss" `Quick
        test_reply_loss_at_most_once;
      Alcotest.test_case "blast single fragment" `Quick
        test_blast_single_fragment;
      Alcotest.test_case "blast fragmentation" `Quick
        test_blast_fragmentation_reassembly;
      Alcotest.test_case "blast selective rexmit" `Quick
        test_blast_selective_retransmit;
      QCheck_alcotest.to_alcotest prop_blast_roundtrip;
      Alcotest.test_case "figure1 rpc" `Quick test_figure1_rpc;
      Alcotest.test_case "rpc payload roundtrip" `Quick
        test_rpc_payload_roundtrip;
      Alcotest.test_case "rpc large payload via blast" `Quick
        test_rpc_large_payload_via_blast;
      Alcotest.test_case "unmetered roundtrip allocates under 850 words"
        `Quick test_bare_roundtrip_allocation ] )


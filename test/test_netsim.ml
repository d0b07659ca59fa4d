module Ns = Protolat_netsim
module Sim = Ns.Sim
module Ether = Ns.Ether
module Sparse = Ns.Sparse_mem
module Usc = Ns.Usc
module Lance = Ns.Lance
module Xk = Protolat_xkernel
module Obs = Protolat_obs

let simmem () = Xk.Simmem.create ()

(* ----- discrete-event engine ------------------------------------------------ *)

let test_sim_ordering () =
  let s = Sim.create () in
  let log = ref [] in
  Sim.schedule s ~delay:5.0 (fun () -> log := 5 :: !log);
  Sim.schedule s ~delay:1.0 (fun () -> log := 1 :: !log);
  Sim.schedule s ~delay:3.0 (fun () -> log := 3 :: !log);
  Alcotest.(check int) "three events" 3 (Sim.run s);
  Alcotest.(check (list int)) "in time order" [ 5; 3; 1 ] !log;
  Alcotest.(check (float 1e-9)) "clock at last" 5.0 (Sim.now s)

let test_sim_until () =
  let s = Sim.create () in
  let fired = ref 0 in
  Sim.schedule s ~delay:10.0 (fun () -> incr fired);
  ignore (Sim.run ~until:5.0 s);
  Alcotest.(check int) "not yet" 0 !fired;
  Alcotest.(check (float 1e-9)) "clock moved to until" 5.0 (Sim.now s);
  ignore (Sim.run s);
  Alcotest.(check int) "fired" 1 !fired

let test_sim_advance_clock () =
  let s = Sim.create () in
  Sim.advance_clock s 7.5;
  Alcotest.(check (float 1e-9)) "advanced" 7.5 (Sim.now s);
  Alcotest.check_raises "negative" (Invalid_argument "Sim.advance_clock")
    (fun () -> Sim.advance_clock s (-1.0))

let test_sim_reentrant () =
  let s = Sim.create () in
  let log = ref [] in
  Sim.schedule s ~delay:1.0 (fun () ->
      log := "a" :: !log;
      Sim.schedule s ~delay:1.0 (fun () -> log := "b" :: !log));
  ignore (Sim.run s);
  Alcotest.(check (list string)) "cascade" [ "b"; "a" ] !log

(* ----- ethernet ----------------------------------------------------------- *)

let test_ether_timing () =
  (* minimum frame: 64 bytes + 8 preamble at 10 Mb/s = 57.6 us *)
  Alcotest.(check (float 1e-6)) "min frame" 57.6 (Ether.tx_time_us 1);
  Alcotest.(check int) "padding" 64 (Ether.frame_bytes 10);
  Alcotest.(check int) "big frame" (14 + 1000) (Ether.frame_bytes 1000)

let test_link_delivery () =
  let s = Sim.create () in
  let link = Ether.Link.create s () in
  let got = ref None in
  Ether.Link.attach link ~station:1 (fun f -> got := Some (Sim.now s, f));
  Ether.Link.transmit link ~station:0
    { Ether.dst = 2; src = 1; ethertype = 0x800; payload = Bytes.make 50 'x' };
  ignore (Sim.run s);
  match !got with
  | Some (t, f) ->
    Alcotest.(check bool) "after wire time" true (t >= 57.6);
    Alcotest.(check int) "payload intact" 50 (Bytes.length f.Ether.payload)
  | None -> Alcotest.fail "frame lost"

let test_link_loss () =
  let s = Sim.create () in
  let link = Ether.Link.create s () in
  let got = ref 0 in
  Ether.Link.attach link ~station:1 (fun _ -> incr got);
  Ether.Link.set_filter link (fun f -> f.Ether.ethertype = 0xdead);
  let send ty =
    Ether.Link.transmit link ~station:0
      { Ether.dst = 0; src = 0; ethertype = ty; payload = Bytes.make 1 'x' }
  in
  send 0xdead;
  send 0x800;
  ignore (Sim.run s);
  Alcotest.(check int) "one delivered" 1 !got;
  Alcotest.(check int) "one dropped" 1 (Ether.Link.frames_dropped link)

(* ----- sparse memory and USC ------------------------------------------------ *)

let test_sparse_mem () =
  let m = Sparse.create (simmem ()) ~words:8 in
  Sparse.write_word m 3 0xABCD;
  Alcotest.(check int) "read back" 0xABCD (Sparse.read_word m 3);
  Sparse.write_word m 3 0x1FFFF;
  Alcotest.(check int) "truncated to 16 bits" 0xFFFF (Sparse.read_word m 3);
  (* sparse: word i at byte offset 4i *)
  Alcotest.(check int) "sparse addressing" 12
    (Sparse.sim_addr_of_word m 3 - Sparse.sim_addr_of_word m 0);
  Alcotest.(check int) "counters" 2 (Sparse.reads m);
  Alcotest.check_raises "bounds"
    (Invalid_argument "Sparse_mem: word index out of range") (fun () ->
      ignore (Sparse.read_word m 8))

let test_usc_fields () =
  let m = Sparse.create (simmem ()) ~words:(2 * Usc.descriptor_words) in
  Usc.set m ~desc:1 Usc.Byte_count 0xFFC0;
  Usc.set m ~desc:1 Usc.Flags Usc.flags_own;
  Usc.set m ~desc:1 Usc.Addr_hi 0x12;
  Alcotest.(check int) "byte count" 0xFFC0 (Usc.get m ~desc:1 Usc.Byte_count);
  Alcotest.(check int) "flags" Usc.flags_own (Usc.get m ~desc:1 Usc.Flags);
  Alcotest.(check int) "addr hi" 0x12 (Usc.get m ~desc:1 Usc.Addr_hi);
  (* flags and addr_hi share a word without clobbering each other *)
  Usc.set m ~desc:1 Usc.Flags 0xFF;
  Alcotest.(check int) "addr hi preserved" 0x12 (Usc.get m ~desc:1 Usc.Addr_hi)

let test_usc_copy_cost () =
  let m = Sparse.create (simmem ()) ~words:Usc.descriptor_words in
  Sparse.reset_counters m;
  ignore (Usc.update_via_copy m ~desc:0 (fun d -> d.(2) <- 42));
  let copy_ops = Sparse.reads m + Sparse.writes m in
  Alcotest.(check int) "copy touches 2x5 words" 10 copy_ops;
  Sparse.reset_counters m;
  Usc.set m ~desc:0 Usc.Byte_count 42;
  let direct_ops = Sparse.reads m + Sparse.writes m in
  Alcotest.(check bool) "direct touches far fewer" true (direct_ops <= 2);
  Alcotest.(check int) "value written" 42 (Usc.get m ~desc:0 Usc.Byte_count)

(* ----- LANCE ------------------------------------------------------------------ *)

let test_lance_latency () =
  let s = Sim.create () in
  let link = Ether.Link.create s () in
  let mem0 = simmem () and mem1 = simmem () in
  let tx = Lance.create s mem0 link ~station:0 () in
  let rx = Lance.create s mem1 link ~station:1 () in
  let tx_done = ref 0.0 and rx_at = ref 0.0 in
  Lance.set_handlers tx
    ~on_tx_complete:(fun () -> tx_done := Sim.now s)
    ~on_receive:(fun _ -> ());
  Lance.set_handlers rx
    ~on_tx_complete:(fun () -> ())
    ~on_receive:(fun _ -> rx_at := Sim.now s);
  Lance.transmit tx
    { Ether.dst = 1; src = 0; ethertype = 0x800; payload = Bytes.make 50 'p' };
  ignore (Sim.run s);
  (* ~105us between handing the frame and the tx-complete interrupt *)
  Alcotest.(check bool) "tx complete ~105us" true
    (Float.abs (!tx_done -. 104.6) < 1.0);
  Alcotest.(check bool) "receiver after sender handoff" true (!rx_at > 100.0);
  Alcotest.(check (float 0.5)) "predicted latency" !tx_done
    (Lance.tx_complete_latency_us tx 50)

let test_lance_modes () =
  Alcotest.(check int) "copy word ops" 10
    (Lance.words_touched_per_tx_update Lance.Copy);
  Alcotest.(check bool) "usc fewer" true
    (Lance.words_touched_per_tx_update Lance.Usc_direct
    < Lance.words_touched_per_tx_update Lance.Copy)

let test_lance_descriptor_traffic () =
  let s = Sim.create () in
  let link = Ether.Link.create s () in
  let run mode =
    let mem = simmem () in
    let l = Lance.create s mem link ~station:0 ~mode () in
    let shared = Lance.tx_descriptor_rings l in
    let before = Sparse.reads shared + Sparse.writes shared in
    Lance.transmit l
      { Ether.dst = 1; src = 0; ethertype = 0; payload = Bytes.make 10 'x' };
    Sparse.reads shared + Sparse.writes shared - before
  in
  let copy_ops = run Lance.Copy and usc_ops = run Lance.Usc_direct in
  Alcotest.(check bool) "usc does less sparse traffic" true (usc_ops < copy_ops)

(* A powered-down controller drops a straggling transmit on every channel
   at once, as it does an incoming frame: the counter, the span ledger's
   drop mark and a tracer instant each move by one. *)
let test_lance_down_transmit () =
  let s = Sim.create () in
  Sim.record s ~events:true ~spans:true;
  let link = Ether.Link.create s () in
  let host = Obs.Span.host_client in
  let l = Lance.create s (simmem ()) link ~station:0 ~host () in
  let tracer = Sim.tracer s and span = Sim.spans s in
  (* the ledger's message is queued for the wire when the frame dies *)
  Obs.Span.begin_run span ~at:0.0;
  Obs.Span.mark_tx_proto span ~host;
  Obs.Span.mark_tx_queue span ~host;
  Lance.set_power l false;
  let drops0 = Lance.down_drops l and events0 = Obs.Tracer.total tracer in
  Lance.transmit l
    { Ether.dst = 1; src = 0; ethertype = 0x800; payload = Bytes.make 50 'p' };
  Obs.Span.roll span ~at:(Sim.now s) ~measured:true;
  Alcotest.(check int) "down_drops counter" (drops0 + 1) (Lance.down_drops l);
  Alcotest.(check int) "one tracer instant" (events0 + 1)
    (Obs.Tracer.total tracer);
  let names = ref [] in
  Obs.Tracer.iter tracer (fun e -> names := e.Obs.Tracer.name :: !names);
  Alcotest.(check (list string)) "named down_drop" [ "down_drop" ] !names;
  let drop_marks =
    Array.fold_left
      (fun n (m : Obs.Span.message) ->
        Array.fold_left
          (fun n (g : Obs.Span.seg) ->
            if g.Obs.Span.stage = Obs.Span.stage_rto_wait then n + 1 else n)
          n m.Obs.Span.segs)
      0 (Obs.Span.messages span)
  in
  Alcotest.(check int) "one span drop mark" 1 drop_marks;
  Alcotest.(check int) "nothing reaches the wire" 0 (Sim.run s)

(* ----- netdev ------------------------------------------------------------------ *)

let test_netdev_roundtrip () =
  let s = Sim.create () in
  let link = Ether.Link.create s () in
  let mk station mac =
    let env = Ns.Host_env.create s () in
    let lance = Lance.create s env.Ns.Host_env.simmem link ~station () in
    (env, Ns.Netdev.create env lance ~mac ())
  in
  let _enva, a = mk 0 0x11 in
  let _envb, b = mk 1 0x22 in
  let got = ref None in
  Ns.Netdev.register b ~ethertype:0x900 (fun ~src msg ->
      got := Some (src, Bytes.to_string (Xk.Msg.contents msg)));
  let msg = Xk.Msg.of_string (Xk.Simmem.create ()) "hello" in
  Ns.Netdev.send a ~dst:0x22 ~ethertype:0x900 msg;
  ignore (Sim.run s);
  (match !got with
  | Some (src, data) ->
    Alcotest.(check int) "src mac" 0x11 src;
    Alcotest.(check string) "payload" "hello" data
  | None -> Alcotest.fail "not delivered");
  Alcotest.(check int) "tx count" 1 (Ns.Netdev.frames_sent a);
  Alcotest.(check int) "rx count" 1 (Ns.Netdev.frames_received b)

let test_host_env_timeout () =
  let s = Sim.create () in
  let env = Ns.Host_env.create s () in
  let fired = ref false in
  ignore (Ns.Host_env.timeout env ~delay:10.0 (fun () -> fired := true));
  ignore (Sim.run s);
  Alcotest.(check bool) "fired via sim" true !fired

let suite =
  ( "netsim",
    [ Alcotest.test_case "sim ordering" `Quick test_sim_ordering;
      Alcotest.test_case "sim until" `Quick test_sim_until;
      Alcotest.test_case "sim advance clock" `Quick test_sim_advance_clock;
      Alcotest.test_case "sim reentrant" `Quick test_sim_reentrant;
      Alcotest.test_case "ether timing" `Quick test_ether_timing;
      Alcotest.test_case "link delivery" `Quick test_link_delivery;
      Alcotest.test_case "link loss" `Quick test_link_loss;
      Alcotest.test_case "sparse memory" `Quick test_sparse_mem;
      Alcotest.test_case "usc fields" `Quick test_usc_fields;
      Alcotest.test_case "usc copy cost" `Quick test_usc_copy_cost;
      Alcotest.test_case "lance latency" `Quick test_lance_latency;
      Alcotest.test_case "lance modes" `Quick test_lance_modes;
      Alcotest.test_case "lance descriptor traffic" `Quick
        test_lance_descriptor_traffic;
      Alcotest.test_case "lance powered-off transmit" `Quick
        test_lance_down_transmit;
      Alcotest.test_case "netdev roundtrip" `Quick test_netdev_roundtrip;
      Alcotest.test_case "host_env timeout" `Quick test_host_env_timeout ] )

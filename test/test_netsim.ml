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

(* ----- timers as event sources ----------------------------------------------- *)

(* Four registrations at time 0, all due at 10: timer A, a plain event X
   that registers a zero-delay timer C, timer B, a plain event Y.  A's
   position fires A and B; B's position stays pending, spent, and fires C
   (registered by X since) before Y, as the wake-up scheduled for B did.
   Dropping spent positions would fire A B X Y C in 4 events. *)
let test_same_instant_timers () =
  let s = Sim.create () in
  let env = Ns.Host_env.create s () in
  let log = ref [] in
  let note x () = log := x :: !log in
  ignore (Ns.Host_env.timeout env ~delay:10.0 (note "A"));
  Sim.schedule_at s ~at:10.0 (fun () ->
      note "X" ();
      ignore (Ns.Host_env.timeout env ~delay:0.0 (note "C")));
  ignore (Ns.Host_env.timeout env ~delay:10.0 (note "B"));
  Sim.schedule_at s ~at:10.0 (note "Y");
  Alcotest.(check int) "five events" 5 (Sim.run s);
  Alcotest.(check (list string)) "order" [ "A"; "B"; "X"; "C"; "Y" ]
    (List.rev !log);
  Alcotest.(check int) "nothing pending" 0 (Sim.pending s)

(* The simulator before timers became its event sources, kept as the
   reference: each host's timers sit in a heap of entry records numbered
   by the host, and every registration also schedules a wake-up on the
   simulator's queue, which fires the host's live timers due by the clock
   when it runs.  A host crash drains the host's heap. *)
module Wakeup_ref = struct
  module Heap = Protolat_util.Heap

  type entry = {
    mutable cancelled : bool;
    mutable fired : bool;
    fn : unit -> unit;
  }

  type sim = {
    now : float array;
    queue : (unit -> unit) Heap.t;
  }

  type host = {
    sim : sim;
    heap : entry Heap.t;
    mutable live : int;
    wake : unit -> unit;
  }

  let create () = { now = [| 0.0 |]; queue = Heap.create () }

  let advance h now =
    while (not (Heap.is_empty h.heap)) && Heap.top_prio h.heap <= now do
      let e = Heap.pop_top h.heap in
      if not e.cancelled then begin
        e.fired <- true;
        h.live <- h.live - 1;
        e.fn ()
      end
    done

  let host sim =
    let rec h =
      { sim; heap = Heap.create (); live = 0;
        wake = (fun () -> advance h h.sim.now.(0)) }
    in
    h

  let schedule_at s ~at fn = Heap.push s.queue at fn

  let timeout h ~delay fn =
    let at = h.sim.now.(0) +. delay in
    let e = { cancelled = false; fired = false; fn } in
    Heap.push h.heap at e;
    h.live <- h.live + 1;
    schedule_at h.sim ~at h.wake;
    e

  let cancel h e =
    if e.cancelled || e.fired then false
    else begin
      e.cancelled <- true;
      h.live <- h.live - 1;
      true
    end

  let cancel_all h =
    let killed = ref 0 in
    while not (Heap.is_empty h.heap) do
      let e = Heap.pop_top h.heap in
      if not (e.cancelled || e.fired) then begin
        e.cancelled <- true;
        incr killed
      end
    done;
    h.live <- 0;
    !killed

  let run ?(until = infinity) s =
    let count = ref 0 in
    while (not (Heap.is_empty s.queue)) && not (Heap.top_prio s.queue > until) do
      let at = Heap.top_prio s.queue in
      let fn = Heap.pop_top s.queue in
      if at > s.now.(0) then s.now.(0) <- at;
      fn ();
      incr count
    done;
    if until <> infinity && until > s.now.(0) then s.now.(0) <- until;
    !count
end

(* A timer script: timers on any host and plain events, at delays from
   a small set so that they collide, whose callbacks run further ops;
   cancels of the k-th timer registered so far (modulo their number), host
   crashes, and clock advances. *)
type timer_op =
  | Timer of int * int * float * timer_op list  (* id, host, delay, body *)
  | Plain of int * float * timer_op list  (* id, delay, body *)
  | Cancel of int
  | Cancel_all of int
  | Advance of float

(* What a script can do to a simulator, for both designs. *)
type timer_impl = {
  timeout : int -> float -> (unit -> unit) -> unit;
  cancel : int -> bool;
  cancel_all : int -> int;
  schedule : float -> (unit -> unit) -> unit;
  advance_clock : float -> unit;
  now : unit -> float;
  run : ?until:float -> unit -> int;
  pending : unit -> int;
  next_at : unit -> float option;
  armed : int -> int;
}

let kth tbl k =
  let n = Hashtbl.length tbl in
  if n = 0 then None else Some (Hashtbl.find tbl (k mod n))

let real_timers hosts =
  let s = Sim.create () in
  let envs = Array.init hosts (fun host -> Ns.Host_env.create s ~host ()) in
  let handles = Hashtbl.create 16 in
  { timeout =
      (fun host delay fn ->
        Hashtbl.replace handles (Hashtbl.length handles)
          (host, Ns.Host_env.timeout envs.(host) ~delay fn));
    cancel =
      (fun k ->
        match kth handles k with
        | None -> false
        | Some (host, h) -> Xk.Event.cancel envs.(host).Ns.Host_env.events h);
    cancel_all =
      (fun host -> Xk.Event.cancel_all envs.(host).Ns.Host_env.events);
    schedule = (fun delay fn -> Sim.schedule s ~delay fn);
    advance_clock = Sim.advance_clock s;
    now = (fun () -> Sim.now s);
    run = (fun ?until () -> Sim.run ?until s);
    pending = (fun () -> Sim.pending s);
    next_at = (fun () -> Sim.next_at s);
    armed = (fun host -> Xk.Event.pending envs.(host).Ns.Host_env.events) }

let reference_timers hosts =
  let module R = Wakeup_ref in
  let s = R.create () in
  let hosts = Array.init hosts (fun _ -> R.host s) in
  let handles = Hashtbl.create 16 in
  { timeout =
      (fun host delay fn ->
        Hashtbl.replace handles (Hashtbl.length handles)
          (host, R.timeout hosts.(host) ~delay fn));
    cancel =
      (fun k ->
        match kth handles k with
        | None -> false
        | Some (host, e) -> R.cancel hosts.(host) e);
    cancel_all = (fun host -> R.cancel_all hosts.(host));
    schedule =
      (fun delay fn -> R.schedule_at s ~at:(s.R.now.(0) +. delay) fn);
    advance_clock = (fun d -> s.R.now.(0) <- s.R.now.(0) +. d);
    now = (fun () -> s.R.now.(0));
    run = (fun ?until () -> R.run ?until s);
    pending = (fun () -> R.Heap.size s.R.queue);
    next_at = (fun () -> R.Heap.min_priority s.R.queue);
    armed = (fun host -> hosts.(host).R.live) }

let rec exec impl log op =
  let note s = log := s :: !log in
  match op with
  | Timer (id, host, delay, body) ->
    impl.timeout host delay (fun () ->
        note (Printf.sprintf "t%d@%g" id (impl.now ()));
        List.iter (exec impl log) body)
  | Plain (id, delay, body) ->
    impl.schedule delay (fun () ->
        note (Printf.sprintf "e%d@%g" id (impl.now ()));
        List.iter (exec impl log) body)
  | Cancel k -> note (Printf.sprintf "cancel %d: %b" k (impl.cancel k))
  | Cancel_all host ->
    note (Printf.sprintf "crash %d: %d" host (impl.cancel_all host))
  | Advance d -> impl.advance_clock d

(* The fire log, then [run]'s counts, [pending], [next_at] and each of the
   [hosts] hosts' armed timers, before, part-way (until 2) and after the
   run. *)
let run_script hosts impl script =
  let log = ref [] in
  List.iter (exec impl log) script;
  let before = (impl.pending (), impl.next_at ()) in
  let n1 = impl.run ~until:2.0 () in
  let mid = (impl.pending (), impl.next_at (), List.init hosts impl.armed) in
  let n2 = impl.run () in
  let after = (impl.pending (), List.init hosts impl.armed) in
  (List.rev !log, before, n1, mid, n2, after)

let gen_timer_script hosts =
  let open QCheck.Gen in
  let delay = oneofl [ 0.0; 0.0; 1.0; 2.0; 2.0; 3.0 ] in
  let rec ops depth =
    list_size (int_bound (if depth = 0 then 8 else 3)) (op depth)
  and op depth =
    let body = if depth >= 2 then return [] else ops (depth + 1) in
    frequency
      [ (4,
         map3
           (fun h d b -> Timer (0, h, d, b))
           (int_bound (hosts - 1))
           delay body);
        (3, map2 (fun d b -> Plain (0, d, b)) delay body);
        (2, map (fun k -> Cancel k) (int_bound 15));
        (1, map (fun h -> Cancel_all h) (int_bound (hosts - 1)));
        (1, map (fun d -> Advance d) (oneofl [ 0.5; 1.0 ])) ]
  in
  let number script =
    let next = ref 0 in
    let fresh () =
      incr next;
      !next
    in
    let rec go = function
      | Timer (_, h, d, b) ->
        let id = fresh () in
        Timer (id, h, d, List.map go b)
      | Plain (_, d, b) ->
        let id = fresh () in
        Plain (id, d, List.map go b)
      | (Cancel _ | Cancel_all _ | Advance _) as op -> op
    in
    List.map go script
  in
  map number (ops 0)

let rec print_timer_op = function
  | Timer (id, h, d, b) ->
    Printf.sprintf "t%d(host %d, +%g)[%s]" id h d (print_timer_ops b)
  | Plain (id, d, b) -> Printf.sprintf "e%d(+%g)[%s]" id d (print_timer_ops b)
  | Cancel k -> Printf.sprintf "cancel %d" k
  | Cancel_all h -> Printf.sprintf "crash %d" h
  | Advance d -> Printf.sprintf "advance %g" d

and print_timer_ops ops = String.concat "; " (List.map print_timer_op ops)

(* Scripts run on two hosts or on five, which make a three-level tree of
   hosts in the simulator with three empty leaves. *)
let prop_timers_match_wakeup_reference =
  let gen =
    QCheck.Gen.(
      oneofl [ 2; 5 ] >>= fun hosts ->
      map (fun script -> (hosts, script)) (gen_timer_script hosts))
  in
  let print (hosts, script) =
    Printf.sprintf "%d hosts: %s" hosts (print_timer_ops script)
  in
  QCheck.Test.make ~name:"timers match the wake-up reference" ~count:800
    (QCheck.make ~print gen)
    (fun (hosts, script) ->
      run_script hosts (real_timers hosts) script
      = run_script hosts (reference_timers hosts) script)

(* Registering a timer allocates only the floats boxed at the call (the
   delay and the deadline); cancelling and passing positions allocate
   nothing.  Counted after a warm-up round that grows every array to its
   peak.  With a record per timer, a pair per handle and a boxed time per
   event, registering read 15 words per timer and firing 7.75 per
   position. *)
let test_timer_allocation () =
  let n = 10_000 in
  let s = Sim.create () in
  let env = Ns.Host_env.create s () in
  let events = env.Ns.Host_env.events in
  let fired = ref 0 in
  let fn () = incr fired in
  let delays = Array.init n (fun i -> float_of_int (1 + (i * 37 mod 500))) in
  let handles = Array.make n Xk.Event.none in
  let round () =
    let w0 = Gc.minor_words () in
    for i = 0 to n - 1 do
      handles.(i) <- Ns.Host_env.timeout env ~delay:delays.(i) fn
    done;
    let w1 = Gc.minor_words () in
    for i = 0 to n - 1 do
      if i mod 4 = 0 then ignore (Xk.Event.cancel events handles.(i))
    done;
    let w2 = Gc.minor_words () in
    let positions = Sim.run s in
    let w3 = Gc.minor_words () in
    (positions, w1 -. w0, w2 -. w1, w3 -. w2)
  in
  ignore (round ());
  fired := 0;
  let positions, reg, cancel, fire = round () in
  Alcotest.(check int) "one position per timer" n positions;
  Alcotest.(check int) "three in four fire" (n - (n / 4)) !fired;
  Alcotest.(check bool)
    (Printf.sprintf "registering allocates %.2f words per timer, at most 8"
       (reg /. float_of_int n))
    true
    (reg <= 8.0 *. float_of_int n);
  Alcotest.(check (float 0.0)) "cancelling allocates nothing" 0.0 cancel;
  Alcotest.(check bool)
    (Printf.sprintf "firing allocates %.2f words per position, at most 2"
       (fire /. float_of_int positions))
    true
    (fire <= 2.0 *. float_of_int positions)

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
      Alcotest.test_case "host_env timeout" `Quick test_host_env_timeout;
      Alcotest.test_case "same-instant timers keep the wake-up order" `Quick
        test_same_instant_timers;
      QCheck_alcotest.to_alcotest prop_timers_match_wakeup_reference;
      Alcotest.test_case "timer registration and firing allocation" `Quick
        test_timer_allocation ] )

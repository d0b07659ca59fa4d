module Xk = Protolat_xkernel
module Ns = Protolat_netsim
module Obs = Protolat_obs
module Meter = Xk.Meter
module Msg = Xk.Msg

(* meter sites, interned at module initialisation *)
let s_tcp_demux_map = Xk.Demux.caller "tcp_demux"
let s_udiv = Meter.Site.fn "udiv"
let s_udiv_head = Meter.Site.block "udiv" "head"
let s_udiv_divzero = Meter.Site.cold "udiv" "divzero"
let s_udiv_dloop = Meter.Site.block "udiv" "dloop"
let s_udiv_fixup = Meter.Site.block "udiv" "fixup"
let s_tcp_output = Meter.Site.fn "tcp_output"
let s_tcp_output_again = Meter.Site.block "tcp_output" "again"
let s_tcp_output_persist = Meter.Site.cold "tcp_output" "persist"
let s_tcp_output_winupdate = Meter.Site.block "tcp_output" "winupdate"
let s_tcp_output_winupdate_0 = Meter.Site.call "tcp_output" "winupdate" 0
let s_tcp_output_silly = Meter.Site.cold "tcp_output" "silly"
let s_tcp_output_build = Meter.Site.block "tcp_output" "build"
let s_tcp_output_build_0 = Meter.Site.call "tcp_output" "build" 0
let s_tcp_output_options = Meter.Site.cold "tcp_output" "options"
let s_tcp_output_xmit = Meter.Site.block "tcp_output" "xmit"
let s_tcp_output_rexmt_path = Meter.Site.cold "tcp_output" "rexmt_path"
let s_tcp_output_xmit_0 = Meter.Site.call "tcp_output" "xmit" 0
let s_event_register = Meter.Site.fn "event_register"
let s_event_register_insert = Meter.Site.block "event_register" "insert"
let s_event_register_expand = Meter.Site.cold "event_register" "expand"
let s_tcp_output_xmit_1 = Meter.Site.call "tcp_output" "xmit" 1
let s_clientstream_demux = Meter.Site.fn "clientstream_demux"
let s_clientstream_demux_strip = Meter.Site.block "clientstream_demux" "strip"
let s_clientstream_demux_nosession = Meter.Site.cold "clientstream_demux" "nosession"
let s_clientstream_demux_deliver = Meter.Site.block "clientstream_demux" "deliver"
let s_clientstream_demux_deliver_0 = Meter.Site.call "clientstream_demux" "deliver" 0
let s_tcp_input = Meter.Site.fn "tcp_input"
let s_tcp_input_validate = Meter.Site.block "tcp_input" "validate"
let s_tcp_input_validate_0 = Meter.Site.call "tcp_input" "validate" 0
let s_tcp_input_bad_cksum = Meter.Site.cold "tcp_input" "bad_cksum"
let s_tcp_input_hdr_pred = Meter.Site.block "tcp_input" "hdr_pred"
let s_tcp_input_not_established = Meter.Site.cold "tcp_input" "not_established"
let s_tcp_input_ack_proc = Meter.Site.block "tcp_input" "ack_proc"
let s_tcp_input_old_ack = Meter.Site.cold "tcp_input" "old_ack"
let s_tcp_input_dupack = Meter.Site.cold "tcp_input" "dupack"
let s_tcp_input_rtt = Meter.Site.block "tcp_input" "rtt"
let s_tcp_input_rtt_0 = Meter.Site.call "tcp_input" "rtt" 0
let s_event_cancel = Meter.Site.fn "event_cancel"
let s_event_cancel_remove = Meter.Site.block "event_cancel" "remove"
let s_event_cancel_notfound = Meter.Site.cold "event_cancel" "notfound"
let s_tcp_input_cwnd = Meter.Site.block "tcp_input" "cwnd"
let s_tcp_input_cwnd_0 = Meter.Site.call "tcp_input" "cwnd" 0
let s_tcp_input_data_proc = Meter.Site.block "tcp_input" "data_proc"
let s_tcp_input_reass = Meter.Site.cold "tcp_input" "reass"
let s_tcp_input_window_upd = Meter.Site.block "tcp_input" "window_upd"
let s_tcp_input_flags_slow = Meter.Site.cold "tcp_input" "flags_slow"
let s_tcp_input_deliver = Meter.Site.block "tcp_input" "deliver"
let s_tcp_input_deliver_0 = Meter.Site.call "tcp_input" "deliver" 0
let s_tcp_demux = Meter.Site.fn "tcp_demux"
let s_tcp_demux_parse = Meter.Site.block "tcp_demux" "parse"
let s_tcp_demux_listen_path = Meter.Site.cold "tcp_demux" "listen_path"
let s_tcp_demux_dispatch = Meter.Site.block "tcp_demux" "dispatch"
let s_tcp_demux_dispatch_0 = Meter.Site.call "tcp_demux" "dispatch" 0
let s_tcp_send = Meter.Site.fn "tcp_send"
let s_tcp_send_chk = Meter.Site.block "tcp_send" "chk"
let s_tcp_send_notestab = Meter.Site.cold "tcp_send" "notestab"
let s_tcp_send_chk_0 = Meter.Site.call "tcp_send" "chk" 0

type t = {
  env : Ns.Host_env.t;
  ip : Ip.t;
  opts : Opts.t;
  pcbs : session Xk.Map.t;
  listeners : (int, session -> bytes -> unit) Hashtbl.t;
  mutable iss : int;
  mutable dropped : int;
  c_retransmits : Obs.Metrics.counter;
  c_fast_retransmits : Obs.Metrics.counter;
  c_persist_probes : Obs.Metrics.counter;
  cksum : Cksum_meter.counters;
}

and session = {
  tcp : t;
  tcb : Tcb.t;
  mutable receive : session -> bytes -> unit;
  mutable rexmt : Xk.Event.handle;
  mutable delack : Xk.Event.handle;
  mutable retx_q : (int * bytes) list;
      (** unacknowledged segments (seq, wire bytes), oldest first *)
  mutable sent_in_input : bool;  (** did input processing piggyback a send? *)
  mutable sndq : bytes list;  (** send buffer (window-limited output) *)
  mutable ooo : (int * bytes) list;
      (** out-of-order segments awaiting reassembly, sorted by seq *)
  mutable nodelay : bool;  (** disable Nagle (default: Nagle on) *)
  mutable persist : Xk.Event.handle;  (** zero-window probe timer *)
  mutable timewait : Xk.Event.handle;
  mutable fin_wait2_at : float;
      (** when the session entered [Fin_wait_2] — the reference point for
          the {!sweep} reaper's finwait2 timeout *)
}

let tick_us = 976.0 (* 1024 Hz timer *)

let create env ip ~opts =
  let t =
    { env;
      ip;
      opts;
      pcbs = Xk.Map.create ~buckets:64 ();
      listeners = Hashtbl.create 8;
      iss = 0x1000;
      dropped = 0;
      c_retransmits =
        Obs.Metrics.counter env.Ns.Host_env.metrics
          ~help:"segments resent (timeout + fast)" "tcp.retransmits";
      c_fast_retransmits =
        Obs.Metrics.counter env.Ns.Host_env.metrics
          ~help:"third-dup-ack fast retransmits" "tcp.fast_retransmits";
      c_persist_probes =
        Obs.Metrics.counter env.Ns.Host_env.metrics
          ~help:"zero-window persist probes" "tcp.persist_probes";
      cksum = Cksum_meter.counters env.Ns.Host_env.metrics }
  in
  t

let meter t = t.env.Ns.Host_env.meter

let now_us t = Ns.Sim.now t.env.Ns.Host_env.sim

(* ----- metered integer division (the software routine the Alpha needs) --- *)

let udiv_metered t a b =
  let m = meter t in
  m.Meter.enter s_udiv;
  m.Meter.block s_udiv_head;
  m.Meter.cold ~triggered:(b = 0) s_udiv_divzero;
  let q =
    if b = 0 then 0
    else begin
      let rec bits n v = if v = 0 then n else bits (n + 1) (v lsr 1) in
      let iters = max 1 ((bits 0 a + 3) / 4) in
      for _ = 1 to iters do
        m.Meter.block s_udiv_dloop
      done;
      m.Meter.block s_udiv_fixup;
      a / b
    end
  in
  m.Meter.leave s_udiv;
  q

(* Advertised-window update threshold: 35% via multiply/divide, or roughly
   a third via shift-and-add (§2.2.2). *)
let window_update_threshold t maxwin =
  if t.opts.Opts.avoid_muldiv then
    (maxwin lsr 2) + (maxwin lsr 4) + (maxwin lsr 6)
  else udiv_metered t (maxwin * 35) 100

(* ----- segment transmission ---------------------------------------------- *)

(* cancel the timer a session field holds; the caller then stores
   [Xk.Event.none] there *)
let cancel_timer s h = ignore (Xk.Event.cancel s.tcp.env.Ns.Host_env.events h)

let cancel_rexmt s =
  cancel_timer s s.rexmt;
  s.rexmt <- Xk.Event.none

(* drop fully acknowledged segments from the retransmission queue *)
let ack_retx_q s =
  let cb = s.tcb in
  s.retx_q <-
    List.filter
      (fun (seq0, seg) ->
        let seg_len = max 1 (Bytes.length seg - Tcp_hdr.size) in
        Seq.gt (Seq.add seq0 seg_len) cb.Tcb.snd_una)
      s.retx_q

let cancel_delack s =
  cancel_timer s s.delack;
  s.delack <- Xk.Event.none

(* exponential retransmit backoff: the RTO doubles per consecutive
   retransmission of the same data, capped at 2^max_rexmt_shift, and the
   shift resets when new data is acked (Karn's algorithm) *)
let max_rexmt_shift = 6

(* consecutive unanswered retransmissions before the connection is
   dropped (BSD's TCP_MAXRXTSHIFT) *)
let max_rexmt_tries = 12

let rexmt_delay_ticks cb =
  Tcb.rto_ticks cb lsl min cb.Tcb.rexmt_shift max_rexmt_shift

let rec tcp_output ?(flags = Tcp_hdr.ack_flag) ?(rexmt = false) s msg =
  let t = s.tcp in
  let m = meter t in
  let cb = s.tcb in
  m.Meter.enter s_tcp_output;
  m.Meter.read cb.Tcb.sim_addr Tcb.sim_size;
  m.Meter.write cb.Tcb.sim_addr Tcb.sim_size;
  m.Meter.block s_tcp_output_again;
  let len = Msg.len msg in
  let zero_window =
    cb.Tcb.snd_wnd = 0 && len > 0 && cb.Tcb.state = Tcb.Established
  in
  m.Meter.cold ~triggered:zero_window s_tcp_output_persist;
  (* decide whether a window update must accompany this segment *)
  (if t.opts.Opts.avoid_muldiv then
     m.Meter.block s_tcp_output_winupdate
   else begin
     m.Meter.block s_tcp_output_winupdate;
     m.Meter.call s_tcp_output_winupdate_0
   end);
  let threshold = window_update_threshold t (16 * cb.Tcb.mss) in
  let adv = Seq.sub (Seq.add cb.Tcb.rcv_nxt cb.Tcb.rcv_wnd) cb.Tcb.rcv_adv in
  let _window_update_needed = adv >= threshold in
  m.Meter.cold ~triggered:false s_tcp_output_silly;
  (* build the header and checksum the segment *)
  m.Meter.read cb.Tcb.sim_addr Tcb.sim_size;
  m.Meter.write (Msg.sim_addr msg) Tcp_hdr.size;
  m.Meter.block s_tcp_output_build;
  let seq = if rexmt then cb.Tcb.snd_una else cb.Tcb.snd_nxt in
  let hdr =
    Tcp_hdr.make ~flags ~window:cb.Tcb.rcv_wnd ~sport:cb.Tcb.local_port
      ~dport:cb.Tcb.remote_port ~seq ~ack:cb.Tcb.rcv_nxt ()
  in
  let hdr_bytes = Tcp_hdr.to_bytes hdr in
  let seg = Bytes.create (Tcp_hdr.size + len) in
  Bytes.blit hdr_bytes 0 seg 0 Tcp_hdr.size;
  Msg.blit_into msg seg Tcp_hdr.size;
  let pseudo =
    Checksum.pseudo_header ~src:cb.Tcb.local_ip ~dst:cb.Tcb.remote_ip
      ~proto:Ip_hdr.proto_tcp ~len:(Bytes.length seg)
  in
  m.Meter.call s_tcp_output_build_0;
  let csum =
    Checksum.finish
      (Cksum_meter.sum m ~counters:t.cksum ~initial:pseudo ~sim_base:(Msg.sim_addr msg) seg 0
         (Bytes.length seg))
  in
  Bytes.set hdr_bytes 16 (Char.chr (csum lsr 8 land 0xFF));
  Bytes.set hdr_bytes 17 (Char.chr (csum land 0xFF));
  Msg.push msg hdr_bytes;
  m.Meter.cold ~triggered:false s_tcp_output_options;
  (* bookkeeping + hand off *)
  m.Meter.write cb.Tcb.sim_addr Tcb.sim_size;
  m.Meter.block s_tcp_output_xmit;
  m.Meter.cold ~triggered:rexmt s_tcp_output_rexmt_path;
  let seq_consumed =
    len
    + (if Tcp_hdr.has hdr Tcp_hdr.syn then 1 else 0)
    + if Tcp_hdr.has hdr Tcp_hdr.fin then 1 else 0
  in
  if not rexmt then begin
    cb.Tcb.snd_nxt <- Seq.add cb.Tcb.snd_nxt seq_consumed;
    if seq_consumed > 0 then begin
      Bytes.blit hdr_bytes 0 seg 0 Tcp_hdr.size;
      s.retx_q <- s.retx_q @ [ (seq, seg) ]
    end
  end;
  cb.Tcb.rcv_adv <- Seq.add cb.Tcb.rcv_nxt cb.Tcb.rcv_wnd;
  cb.Tcb.segments_out <- cb.Tcb.segments_out + 1;
  cb.Tcb.delack_pending <- false;
  cancel_delack s;
  s.sent_in_input <- true;
  (* time the segment for RTT if nothing is being timed *)
  if seq_consumed > 0 && cb.Tcb.rtt_seq < 0 then begin
    cb.Tcb.rtt_seq <- seq;
    cb.Tcb.rtt_start_us <- now_us t
  end;
  (* (re)arm the retransmit timer *)
  m.Meter.call s_tcp_output_xmit_0;
  m.Meter.enter s_event_register;
  m.Meter.block s_event_register_insert;
  m.Meter.cold ~triggered:false s_event_register_expand;
  if seq_consumed > 0 then begin
    cancel_rexmt s;
    let delay = float_of_int (rexmt_delay_ticks cb) *. tick_us in
    s.rexmt <- Ns.Host_env.timeout t.env ~delay (fun () -> retransmit s)
  end;
  m.Meter.leave s_event_register;
  m.Meter.call s_tcp_output_xmit_1;
  Ip.push t.ip ~dst:cb.Tcb.remote_ip ~proto:Ip_hdr.proto_tcp msg;
  m.Meter.leave s_tcp_output

and retransmit ?(fast = false) s =
  let t = s.tcp in
  match s.retx_q with
  | [] -> ()
  | (_, seg) :: _ ->
    Ns.Host_env.phase t.env "rexmt" (fun () ->
        s.rexmt <- Xk.Event.none;
        if s.tcb.Tcb.rexmt_shift >= max_rexmt_tries then begin
          (* the peer has not answered any backed-off retransmission:
             drop the connection so timers and queues drain *)
          s.tcb.Tcb.state <- Tcb.Closed;
          s.retx_q <- [];
          s.sndq <- [];
          s.ooo <- [];
          cancel_delack s;
          cancel_timer s s.persist;
          s.persist <- Xk.Event.none;
          ignore (Xk.Map.unbind t.pcbs (Tcb.key_of s.tcb))
        end
        else begin
          let m = meter t in
          m.Meter.cold ~triggered:true s_tcp_output_rexmt_path;
          Ns.Host_env.retry t.env t.c_retransmits ~cat:"tcp"
            ~name:(if fast then "fast_retransmit" else "retransmit")
            ~a0:s.tcb.Tcb.rexmt_shift;
          if fast then Obs.Metrics.inc t.c_fast_retransmits;
          s.tcb.Tcb.retransmits <- s.tcb.Tcb.retransmits + 1;
          s.tcb.Tcb.rexmt_shift <- s.tcb.Tcb.rexmt_shift + 1;
          (* Karn: samples from retransmitted data are ambiguous *)
          s.tcb.Tcb.rtt_seq <- -1;
          (* congestion response: a timeout collapses the window to one
             segment; a fast retransmit only halves it (fast recovery), so
             the flight stays large enough to keep producing the duplicate
             acks that drive further fast retransmits *)
          let flight = Seq.sub s.tcb.Tcb.snd_nxt s.tcb.Tcb.snd_una in
          s.tcb.Tcb.snd_ssthresh <- max (2 * s.tcb.Tcb.mss) (flight / 2);
          s.tcb.Tcb.snd_cwnd <-
            (if fast then s.tcb.Tcb.snd_ssthresh else s.tcb.Tcb.mss);
          (* resend the stored segment directly through IP *)
          let msg = Msg.alloc t.env.Ns.Host_env.simmem 0 in
          Msg.set_payload msg seg;
          Ip.push t.ip ~dst:s.tcb.Tcb.remote_ip ~proto:Ip_hdr.proto_tcp msg;
          s.rexmt <-
            Ns.Host_env.timeout t.env
              ~delay:(float_of_int (rexmt_delay_ticks s.tcb) *. tick_us)
              (fun () -> retransmit s)
        end)

(* Window-limited transmission: drain the send buffer while the usable
   window (min of congestion and advertised windows, less what is already
   in flight) has room; segments are at most one MSS. *)
let rec try_push s =
  let t = s.tcp in
  let cb = s.tcb in
  match s.sndq with
  | [] -> ()
  | chunk :: rest ->
    let flight = Seq.sub cb.Tcb.snd_nxt cb.Tcb.snd_una in
    let window = min cb.Tcb.snd_cwnd (max cb.Tcb.snd_wnd 0) in
    let room = window - flight in
    if room <= 0 then begin
      (* zero usable window with data queued: arm the persist timer so a
         lost window update cannot deadlock the connection (RFC 1122) *)
      if cb.Tcb.snd_wnd = 0 && s.persist = Xk.Event.none then
        s.persist <-
          Ns.Host_env.timeout t.env ~delay:5000.0 (fun () ->
              s.persist <- Xk.Event.none;
              persist_probe s)
    end
    else if
      (* Nagle: hold a sub-MSS segment while data is in flight *)
      (not s.nodelay) && flight > 0 && Bytes.length chunk < cb.Tcb.mss
    then ()
    else begin
      let seg_len = min (min room cb.Tcb.mss) (Bytes.length chunk) in
      let payload = Bytes.sub chunk 0 seg_len in
      let remainder = Bytes.length chunk - seg_len in
      s.sndq <-
        (if remainder = 0 then rest
         else Bytes.sub chunk seg_len remainder :: rest);
      let msg = Msg.alloc t.env.Ns.Host_env.simmem ~headroom:128 0 in
      Msg.set_payload msg payload;
      tcp_output ~flags:(Tcp_hdr.ack_flag lor Tcp_hdr.psh) s msg;
      try_push s
    end

(* the persist probe: force one byte out regardless of the window *)
and persist_probe s =
  let t = s.tcp in
  match s.sndq with
  | [] -> ()
  | chunk :: rest ->
    Ns.Host_env.phase t.env "persist" (fun () ->
        Obs.Metrics.inc t.c_persist_probes;
        Ns.Host_env.trace_instant t.env ~cat:"tcp" ~name:"persist_probe"
          ~a0:0;
        let payload = Bytes.sub chunk 0 1 in
        let remainder = Bytes.length chunk - 1 in
        s.sndq <-
          (if remainder = 0 then rest
           else Bytes.sub chunk 1 remainder :: rest);
        let msg = Msg.alloc t.env.Ns.Host_env.simmem ~headroom:128 0 in
        Msg.set_payload msg payload;
        tcp_output ~flags:(Tcp_hdr.ack_flag lor Tcp_hdr.psh) s msg;
        if s.sndq <> [] && s.persist = Xk.Event.none then
          s.persist <-
            Ns.Host_env.timeout t.env ~delay:5000.0 (fun () ->
                s.persist <- Xk.Event.none;
                persist_probe s))

(* ----- input processing -------------------------------------------------- *)

let deliver s payload =
  (* the layer above TCP: clientStreamDemux *)
  let t = s.tcp in
  let m = meter t in
  m.Meter.enter s_clientstream_demux;
  m.Meter.block s_clientstream_demux_strip;
  m.Meter.cold ~triggered:false s_clientstream_demux_nosession;
  m.Meter.block s_clientstream_demux_deliver;
  m.Meter.call s_clientstream_demux_deliver_0;
  s.receive s payload;
  m.Meter.leave s_clientstream_demux

let unbind_session s =
  let t = s.tcp in
  let cb = s.tcb in
  ignore
    (Xk.Map.unbind t.pcbs
       (Tcb.key ~local_port:cb.Tcb.local_port ~remote_ip:cb.Tcb.remote_ip
          ~remote_port:cb.Tcb.remote_port))

let time_wait_us = 10_000.0 (* 2 MSL, scaled to simulation time *)

let enter_time_wait s =
  let t = s.tcp in
  s.tcb.Tcb.state <- Tcb.Time_wait;
  if s.timewait = Xk.Event.none then
    s.timewait <-
      Ns.Host_env.timeout t.env ~delay:time_wait_us (fun () ->
          s.timewait <- Xk.Event.none;
          s.tcb.Tcb.state <- Tcb.Closed;
          unbind_session s)

(* consume the RTT timing armed on the SYN / SYN-ACK at the transition to
   Established: sampled here if the ack covers it, and always disarmed —
   otherwise the timed handshake segment stays armed until the first data
   ack and charges the whole pre-transfer idle time as one giant sample *)
let sample_handshake_rtt s (hdr : Tcp_hdr.t) =
  let cb = s.tcb in
  if cb.Tcb.rtt_seq >= 0 && Seq.gt hdr.Tcp_hdr.ack cb.Tcb.rtt_seq then
    Tcb.update_rtt cb
      (int_of_float ((now_us s.tcp -. cb.Tcb.rtt_start_us) /. tick_us));
  cb.Tcb.rtt_seq <- -1

let handshake_input s (hdr : Tcp_hdr.t) =
  (* cold-path (not_established) handling: the three-way handshake and the
     connection-teardown state machine *)
  let t = s.tcp in
  let cb = s.tcb in
  let empty () = Msg.alloc t.env.Ns.Host_env.simmem 0 in
  let acks_our_fin =
    Tcp_hdr.has hdr Tcp_hdr.ack_flag && Seq.geq hdr.Tcp_hdr.ack cb.Tcb.snd_nxt
  in
  let peer_fin = Tcp_hdr.has hdr Tcp_hdr.fin in
  let consume_fin () = cb.Tcb.rcv_nxt <- Seq.add hdr.Tcp_hdr.seq 1 in
  match cb.Tcb.state with
  | Tcb.Syn_sent when Tcp_hdr.has hdr Tcp_hdr.syn && Tcp_hdr.has hdr Tcp_hdr.ack_flag ->
    cb.Tcb.irs <- hdr.Tcp_hdr.seq;
    cb.Tcb.rcv_nxt <- Seq.add hdr.Tcp_hdr.seq 1;
    cb.Tcb.snd_una <- hdr.Tcp_hdr.ack;
    cb.Tcb.snd_wnd <- hdr.Tcp_hdr.window;
    cb.Tcb.state <- Tcb.Established;
    sample_handshake_rtt s hdr;
    ack_retx_q s;
    cancel_rexmt s;
    tcp_output s (empty ())
  | Tcb.Listen when Tcp_hdr.has hdr Tcp_hdr.syn ->
    cb.Tcb.irs <- hdr.Tcp_hdr.seq;
    cb.Tcb.rcv_nxt <- Seq.add hdr.Tcp_hdr.seq 1;
    cb.Tcb.snd_wnd <- hdr.Tcp_hdr.window;
    cb.Tcb.state <- Tcb.Syn_received;
    tcp_output ~flags:(Tcp_hdr.syn lor Tcp_hdr.ack_flag) s (empty ())
  | Tcb.Syn_received when Tcp_hdr.has hdr Tcp_hdr.ack_flag ->
    cb.Tcb.snd_una <- hdr.Tcp_hdr.ack;
    cb.Tcb.snd_wnd <- hdr.Tcp_hdr.window;
    cb.Tcb.state <- Tcb.Established;
    sample_handshake_rtt s hdr;
    ack_retx_q s;
    cancel_rexmt s
  | Tcb.Fin_wait_1 ->
    if Tcp_hdr.has hdr Tcp_hdr.ack_flag then begin
      cb.Tcb.snd_una <- hdr.Tcp_hdr.ack;
      ack_retx_q s
    end;
    if acks_our_fin && peer_fin then begin
      consume_fin ();
      tcp_output s (empty ());
      enter_time_wait s
    end
    else if acks_our_fin then begin
      cancel_rexmt s;
      cb.Tcb.state <- Tcb.Fin_wait_2;
      s.fin_wait2_at <- Ns.Sim.now s.tcp.env.Ns.Host_env.sim
    end
    else if peer_fin then begin
      consume_fin ();
      cb.Tcb.state <- Tcb.Closing;
      tcp_output s (empty ())
    end
  | Tcb.Fin_wait_2 ->
    if peer_fin then begin
      consume_fin ();
      tcp_output s (empty ());
      enter_time_wait s
    end
  | Tcb.Closing ->
    if acks_our_fin then begin
      cancel_rexmt s;
      enter_time_wait s
    end
  | Tcb.Last_ack ->
    if acks_our_fin then begin
      cancel_rexmt s;
      cb.Tcb.state <- Tcb.Closed;
      unbind_session s
    end
  | Tcb.Time_wait ->
    (* a retransmitted FIN: re-acknowledge *)
    if peer_fin then tcp_output s (empty ())
  | Tcb.Closed | Tcb.Close_wait | Tcb.Established | Tcb.Listen
  | Tcb.Syn_sent | Tcb.Syn_received ->
    ()

let fin_input s (hdr : Tcp_hdr.t) =
  let t = s.tcp in
  let cb = s.tcb in
  let empty () = Msg.alloc t.env.Ns.Host_env.simmem 0 in
  if Tcp_hdr.has hdr Tcp_hdr.fin then begin
    cb.Tcb.rcv_nxt <- Seq.add cb.Tcb.rcv_nxt 1;
    (match cb.Tcb.state with
    | Tcb.Established -> cb.Tcb.state <- Tcb.Close_wait
    | Tcb.Fin_wait_1 -> cb.Tcb.state <- Tcb.Closing
    | Tcb.Fin_wait_2 -> cb.Tcb.state <- Tcb.Time_wait
    | _ -> ());
    tcp_output s (empty ())
  end

let tcp_input s (iphdr : Ip_hdr.t) msg =
  let t = s.tcp in
  let m = meter t in
  let cb = s.tcb in
  m.Meter.enter s_tcp_input;
  cb.Tcb.segments_in <- cb.Tcb.segments_in + 1;
  s.sent_in_input <- false;
  m.Meter.read (Msg.sim_addr msg) Tcp_hdr.size;
  m.Meter.block s_tcp_input_validate;
  let seg = Msg.contents msg in
  let pseudo =
    Checksum.pseudo_header ~src:iphdr.Ip_hdr.src ~dst:iphdr.Ip_hdr.dst
      ~proto:Ip_hdr.proto_tcp ~len:(Bytes.length seg)
  in
  m.Meter.call s_tcp_input_validate_0;
  let ok =
    Cksum_meter.verify m ~counters:t.cksum ~initial:pseudo ~sim_base:(Msg.sim_addr msg) seg 0
      (Bytes.length seg)
  in
  m.Meter.cold ~triggered:(not ok) s_tcp_input_bad_cksum;
  if ok then begin
    let hdr = Tcp_hdr.of_bytes (Msg.pop msg Tcp_hdr.size) in
    let payload = Msg.contents msg in
    (* header prediction: on a bidirectional connection the segment
       carries both data and an ack, so the pure-data / pure-ack tests
       fail and we fall into the general path (§2.3) *)
    if t.opts.Opts.header_prediction then
      m.Meter.block s_tcp_input_hdr_pred;
    let established = cb.Tcb.state = Tcb.Established in
    m.Meter.cold ~triggered:(not established) s_tcp_input_not_established;
    if not established then handshake_input s hdr
    else begin
      (* --- ack processing --- *)
      m.Meter.read cb.Tcb.sim_addr Tcb.sim_size;
      m.Meter.write cb.Tcb.sim_addr Tcb.sim_size;
      m.Meter.block s_tcp_input_ack_proc;
      let acked = Seq.sub hdr.Tcp_hdr.ack cb.Tcb.snd_una in
      let old_ack = Seq.lt hdr.Tcp_hdr.ack cb.Tcb.snd_una in
      let dup =
        acked = 0 && Tcp_hdr.has hdr Tcp_hdr.ack_flag
        && Seq.gt cb.Tcb.snd_nxt cb.Tcb.snd_una
        && Msg.len msg = 0
      in
      m.Meter.cold ~triggered:old_ack s_tcp_input_old_ack;
      m.Meter.cold ~triggered:dup s_tcp_input_dupack;
      if dup then begin
        cb.Tcb.dupacks <- cb.Tcb.dupacks + 1;
        (* fast retransmit: the third duplicate ack signals a hole at
           snd_una; resend it now instead of waiting out the RTO *)
        if cb.Tcb.dupacks = 3 && s.retx_q <> [] then begin
          cancel_rexmt s;
          retransmit ~fast:true s
        end
      end
      else cb.Tcb.dupacks <- 0;
      if acked > 0 then begin
        cb.Tcb.snd_una <- hdr.Tcp_hdr.ack;
        cb.Tcb.snd_wnd <- hdr.Tcp_hdr.window;
        cb.Tcb.rexmt_shift <- 0;
        ack_retx_q s;
        if cb.Tcb.snd_wnd > 0 then begin
          cancel_timer s s.persist;
          s.persist <- Xk.Event.none
        end;
        (* rtt sample if the timed sequence is now acked *)
        m.Meter.write cb.Tcb.sim_addr Tcb.sim_size;
        m.Meter.block s_tcp_input_rtt;
        m.Meter.call s_tcp_input_rtt_0;
        m.Meter.enter s_event_cancel;
        m.Meter.block s_event_cancel_remove;
        m.Meter.cold ~triggered:false s_event_cancel_notfound;
        cancel_rexmt s;
        m.Meter.leave s_event_cancel;
        (* restart (not just cancel) the retransmit timer while data
           is outstanding: a new ack proves the flow is moving, so the
           remaining flight gets a fresh, un-backed-off timeout rather
           than inheriting a stale multi-second backoff *)
        if Seq.gt cb.Tcb.snd_nxt cb.Tcb.snd_una then
          s.rexmt <-
            Ns.Host_env.timeout t.env
              ~delay:(float_of_int (rexmt_delay_ticks cb) *. tick_us)
              (fun () -> retransmit s);
        if cb.Tcb.rtt_seq >= 0 && Seq.gt hdr.Tcp_hdr.ack cb.Tcb.rtt_seq
        then begin
          let ticks =
            int_of_float ((now_us t -. cb.Tcb.rtt_start_us) /. tick_us)
          in
          Tcb.update_rtt cb ticks
        end;
        (* --- congestion window --- *)
        let fully_open =
          cb.Tcb.snd_cwnd >= min cb.Tcb.snd_wnd (16 * cb.Tcb.mss)
        in
        try_push s;
        if t.opts.Opts.avoid_muldiv then begin
          m.Meter.block s_tcp_input_cwnd;
          (* common case: window fully open — no arithmetic at all *)
          if not fully_open then begin
            if cb.Tcb.snd_cwnd < cb.Tcb.snd_ssthresh then
              cb.Tcb.snd_cwnd <- cb.Tcb.snd_cwnd + cb.Tcb.mss
            else
              cb.Tcb.snd_cwnd <-
                cb.Tcb.snd_cwnd
                + max 1 (cb.Tcb.mss * cb.Tcb.mss / cb.Tcb.snd_cwnd)
          end
        end
        else begin
          m.Meter.block s_tcp_input_cwnd;
          m.Meter.call s_tcp_input_cwnd_0;
          let incr_ =
            if cb.Tcb.snd_cwnd < cb.Tcb.snd_ssthresh then cb.Tcb.mss
            else
              max 1
                (udiv_metered t (cb.Tcb.mss * cb.Tcb.mss) cb.Tcb.snd_cwnd)
          in
          if not fully_open then cb.Tcb.snd_cwnd <- cb.Tcb.snd_cwnd + incr_
        end
      end
      else begin
        (* no new ack: the rtt/cwnd blocks are skipped on this path in
           BSD as well; only the duplicate-ack bookkeeping ran *)
        ()
      end;
      (* --- data processing --- *)
      m.Meter.read cb.Tcb.sim_addr Tcb.sim_size;
      m.Meter.write cb.Tcb.sim_addr Tcb.sim_size;
      m.Meter.block s_tcp_input_data_proc;
      let len = Bytes.length payload in
      let in_order = hdr.Tcp_hdr.seq = cb.Tcb.rcv_nxt in
      m.Meter.cold ~triggered:(len > 0 && not in_order) s_tcp_input_reass;
      let force_ack = ref false in
      let deliverable =
        if len > 0 && in_order then begin
          cb.Tcb.rcv_nxt <- Seq.add cb.Tcb.rcv_nxt len;
          cb.Tcb.delack_pending <- true;
          (* drain any previously queued out-of-order segments that are
             now contiguous *)
          let parts = ref [ payload ] in
          let rec drain () =
            match s.ooo with
            | (seq0, data) :: rest when seq0 = cb.Tcb.rcv_nxt ->
              cb.Tcb.rcv_nxt <- Seq.add cb.Tcb.rcv_nxt (Bytes.length data);
              parts := data :: !parts;
              s.ooo <- rest;
              drain ()
            | (seq0, _) :: rest when Seq.lt seq0 cb.Tcb.rcv_nxt ->
              (* stale overlap: already covered *)
              s.ooo <- rest;
              drain ()
            | _ -> ()
          in
          drain ();
          Some (Bytes.concat Bytes.empty (List.rev !parts))
        end
        else begin
          if len > 0 && Seq.gt hdr.Tcp_hdr.seq cb.Tcb.rcv_nxt then begin
            (* queue for reassembly (sorted, ignoring duplicates) *)
            if not (List.mem_assoc hdr.Tcp_hdr.seq s.ooo) then
              s.ooo <-
                List.sort
                  (fun (a, _) (b, _) -> Seq.sub a b)
                  ((hdr.Tcp_hdr.seq, payload) :: s.ooo);
            (* ack out-of-order data immediately (not delayed): the
               duplicate acks are what lets the sender fast-retransmit
               the hole *)
            force_ack := true
          end
          else if len > 0 then
            (* stale duplicate data: re-ack it, or a retransmitting
               sender whose ACK was lost never converges *)
            cb.Tcb.delack_pending <- true;
          None
        end
      in
      m.Meter.write cb.Tcb.sim_addr Tcb.sim_size;
      m.Meter.block s_tcp_input_window_upd;
      let slow_flags =
        Tcp_hdr.has hdr Tcp_hdr.fin
        || Tcp_hdr.has hdr Tcp_hdr.rst
        || Tcp_hdr.has hdr Tcp_hdr.urg
      in
      m.Meter.cold ~triggered:slow_flags s_tcp_input_flags_slow;
      if slow_flags then fin_input s hdr;
      (* --- deliver upward --- *)
      m.Meter.block s_tcp_input_deliver;
      (match deliverable with
      | Some data ->
        m.Meter.call s_tcp_input_deliver_0;
        deliver s data
      | None -> ());
      if !force_ack && not s.sent_in_input then
        tcp_output s (Msg.alloc t.env.Ns.Host_env.simmem 0);
      (* if the application did not piggyback a reply, schedule a
         delayed ack *)
      if cb.Tcb.delack_pending && not s.sent_in_input
         && s.delack = Xk.Event.none then
        s.delack <-
          Ns.Host_env.timeout t.env ~delay:2000.0 (fun () ->
              s.delack <- Xk.Event.none;
              if s.tcb.Tcb.delack_pending then
                Ns.Host_env.phase t.env "delack" (fun () ->
                    tcp_output s (Msg.alloc t.env.Ns.Host_env.simmem 0)))
    end
  end;
  m.Meter.leave s_tcp_input

(* ----- demux -------------------------------------------------------------- *)

let session_key ~local_port ~remote_ip ~remote_port =
  Tcb.key ~local_port ~remote_ip ~remote_port

let demux_segment t ~(hdr : Ip_hdr.t) msg =
  let m = meter t in
  m.Meter.enter s_tcp_demux;
  m.Meter.read (Msg.sim_addr msg) Tcp_hdr.size;
  m.Meter.block s_tcp_demux_parse;
  let raw = Msg.peek msg 0 Tcp_hdr.size in
  let thdr = Tcp_hdr.of_bytes raw in
  let key =
    session_key ~local_port:thdr.Tcp_hdr.dport ~remote_ip:hdr.Ip_hdr.src
      ~remote_port:thdr.Tcp_hdr.sport
  in
  let found =
    Xk.Demux.lookup m ~inline:t.opts.Opts.map_cache_inline
      ~caller:s_tcp_demux_map t.pcbs key
  in
  let session =
    match found with
    | Some s ->
      m.Meter.cold ~triggered:false s_tcp_demux_listen_path;
      Some s
    | None -> (
      m.Meter.cold ~triggered:true s_tcp_demux_listen_path;
      match Hashtbl.find_opt t.listeners thdr.Tcp_hdr.dport with
      | None -> None
      (* passive open happens on SYN only: a stale segment from an
         already-reaped incarnation (late retransmit, wandering FIN)
         must not instantiate an embryo session — it would sit in
         Listen forever, since only a SYN can advance it *)
      | Some _ when not (Tcp_hdr.has thdr Tcp_hdr.syn) -> None
      | Some receive ->
        let tcb =
          Tcb.create t.env.Ns.Host_env.simmem ~local_ip:(Ip.my_ip t.ip)
            ~local_port:thdr.Tcp_hdr.dport ~remote_ip:hdr.Ip_hdr.src
            ~remote_port:thdr.Tcp_hdr.sport ~iss:t.iss
        in
        t.iss <- t.iss + 64000;
        tcb.Tcb.state <- Tcb.Listen;
        tcb.Tcb.snd_nxt <- Seq.add tcb.Tcb.iss 0;
        let s =
          { tcp = t;
            tcb;
            receive;
            rexmt = Xk.Event.none;
            delack = Xk.Event.none;
            retx_q = [];
            sent_in_input = false;
            sndq = [];
            ooo = [];
            nodelay = false;
            persist = Xk.Event.none;
            timewait = Xk.Event.none;
            fin_wait2_at = 0.0 }
        in
        Xk.Map.bind t.pcbs key s;
        Some s)
  in
  begin match session with
  | None -> ()
  | Some s ->
    m.Meter.block s_tcp_demux_dispatch;
    m.Meter.call s_tcp_demux_dispatch_0;
    tcp_input s hdr msg
  end;
  m.Meter.leave s_tcp_demux

(* a datagram too short for a TCP header is a counted drop, as in IP *)
let demux t ~hdr msg =
  if Msg.len msg < Tcp_hdr.size then t.dropped <- t.dropped + 1
  else demux_segment t ~hdr msg

(* ----- public API --------------------------------------------------------- *)

let register_with_ip t =
  Ip.register t.ip ~proto:Ip_hdr.proto_tcp (fun ~hdr msg -> demux t ~hdr msg)

let connect t ~local_port ~remote_ip ~remote_port ~receive =
  let tcb =
    Tcb.create t.env.Ns.Host_env.simmem ~local_ip:(Ip.my_ip t.ip) ~local_port
      ~remote_ip ~remote_port ~iss:t.iss
  in
  t.iss <- t.iss + 64000;
  let s =
    { tcp = t;
      tcb;
      receive;
      rexmt = Xk.Event.none;
      delack = Xk.Event.none;
      retx_q = [];
      sent_in_input = false;
      sndq = [];
      ooo = [];
      nodelay = false;
      persist = Xk.Event.none;
      timewait = Xk.Event.none;
      fin_wait2_at = 0.0 }
  in
  Xk.Map.bind t.pcbs (session_key ~local_port ~remote_ip ~remote_port) s;
  tcb.Tcb.state <- Tcb.Syn_sent;
  tcb.Tcb.rcv_wnd <- 4096;
  Ns.Host_env.phase t.env "connect" (fun () ->
      tcp_output ~flags:Tcp_hdr.syn s (Msg.alloc t.env.Ns.Host_env.simmem 0));
  s

let listen t ~port ~receive = Hashtbl.replace t.listeners port receive

let send_msg s msg =
  let t = s.tcp in
  let m = meter t in
  m.Meter.enter s_tcp_send;
  m.Meter.read s.tcb.Tcb.sim_addr Tcb.sim_size;
  m.Meter.block s_tcp_send_chk;
  let estab = s.tcb.Tcb.state = Tcb.Established in
  m.Meter.cold ~triggered:(not estab) s_tcp_send_notestab;
  if not estab then failwith "Tcp.send: not established";
  m.Meter.call s_tcp_send_chk_0;
  let cb = s.tcb in
  let flight = Seq.sub cb.Tcb.snd_nxt cb.Tcb.snd_una in
  let window = min cb.Tcb.snd_cwnd (max cb.Tcb.snd_wnd 0) in
  let nagle_ok =
    s.nodelay || flight = 0 || Msg.len msg >= cb.Tcb.mss
  in
  if s.sndq = [] && Msg.len msg <= cb.Tcb.mss
     && flight + Msg.len msg <= window
     && nagle_ok
  then
    (* fast path: the segment fits the usable window *)
    tcp_output ~flags:(Tcp_hdr.ack_flag lor Tcp_hdr.psh) s msg
  else begin
    (* buffer and let the window pump segment it *)
    s.sndq <- s.sndq @ [ Msg.contents msg ];
    try_push s
  end;
  m.Meter.leave s_tcp_send

let send s data =
  let t = s.tcp in
  let msg = Msg.alloc t.env.Ns.Host_env.simmem 64 in
  Msg.set_payload msg data;
  send_msg s msg

(* host crash: every PCB, timer and buffered segment lives in kernel
   memory and is lost.  Cancel the per-session timers (the Event manager
   is wiped separately by the crash, but cancelling here keeps the
   session objects consistent for any application references that
   survive), move every session to Closed, and empty the map. *)
let abort_session s =
  cancel_rexmt s;
  cancel_delack s;
  cancel_timer s s.persist;
  s.persist <- Xk.Event.none;
  cancel_timer s s.timewait;
  s.timewait <- Xk.Event.none;
  s.retx_q <- [];
  s.sndq <- [];
  s.ooo <- [];
  s.tcb.Tcb.state <- Tcb.Closed

let close s =
  let t = s.tcp in
  if
    s.tcb.Tcb.state = Tcb.Syn_sent || s.tcb.Tcb.state = Tcb.Syn_received
  then begin
    (* RFC 793 CLOSE before the handshake completes: delete the TCB.
       Without this, closing a connection whose peer is crashed or
       partitioned leaves the SYN retransmitting — and once the peer
       returns, the abandoned handshake completes into an Established
       session nobody owns *)
    abort_session s;
    unbind_session s
  end
  else if s.tcb.Tcb.state = Tcb.Established then begin
    s.tcb.Tcb.state <- Tcb.Fin_wait_1;
    Ns.Host_env.phase t.env "close" (fun () ->
        tcp_output
          ~flags:(Tcp_hdr.fin lor Tcp_hdr.ack_flag)
          s
          (Msg.alloc t.env.Ns.Host_env.simmem 0))
  end
  else if s.tcb.Tcb.state = Tcb.Close_wait then begin
    s.tcb.Tcb.state <- Tcb.Last_ack;
    Ns.Host_env.phase t.env "close" (fun () ->
        tcp_output
          ~flags:(Tcp_hdr.fin lor Tcp_hdr.ack_flag)
          s
          (Msg.alloc t.env.Ns.Host_env.simmem 0))
  end

let state s = s.tcb.Tcb.state

let tcb s = s.tcb

let session_count t = Xk.Map.size t.pcbs


let map_counters t = Xk.Map.counters t.pcbs

let map_nonempty_buckets t = Xk.Map.nonempty_list_length t.pcbs

(* tcp_slowtimo-style housekeeping walk over the whole PCB map: reap
   half-closed server sessions the application never looked at again.  This
   is the periodic full-map traversal the §2.2.1 non-empty-bucket list was
   invented for — under multi-flow load it is what generates the
   buckets_scanned counter. *)
(* BSD's finwait2 timeout (tcp_maxidle), scaled to simulation time like
   [time_wait_us]: an application-closed session whose FIN was
   acknowledged must not wait forever for a peer FIN the other end will
   never send — after a peer crash wiped its PCB, nobody owns the other
   half of the close anymore. *)
let fin_wait2_timeout_us = 30_000.0

let sweep t =
  let visited = ref 0 in
  let now = Ns.Sim.now t.env.Ns.Host_env.sim in
  let orphans = ref [] in
  Xk.Map.traverse t.pcbs (fun _ s ->
      incr visited;
      match s.tcb.Tcb.state with
      | Tcb.Close_wait -> close s
      | Tcb.Fin_wait_2 when now -. s.fin_wait2_at >= fin_wait2_timeout_us ->
        orphans := s :: !orphans
      | _ -> ());
  (* unbinding mutates the map, so reap outside the traversal *)
  List.iter
    (fun s ->
      s.tcb.Tcb.state <- Tcb.Closed;
      unbind_session s)
    !orphans;
  !visited

let abort_all t =
  let victims = ref [] in
  Xk.Map.traverse t.pcbs (fun key s -> victims := (key, s) :: !victims);
  List.iter
    (fun (key, s) ->
      abort_session s;
      ignore (Xk.Map.unbind t.pcbs key))
    !victims;
  Hashtbl.reset t.listeners;
  List.length !victims

let set_receive s f = s.receive <- f

let set_nodelay s v = s.nodelay <- v

let retransmits t = Obs.Metrics.value t.c_retransmits

let persist_probes t = Obs.Metrics.value t.c_persist_probes

let segments_dropped t = t.dropped

(* wire TCP into IP at creation *)
let create env ip ~opts =
  let t = create env ip ~opts in
  register_with_ip t;
  t


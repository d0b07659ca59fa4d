module Xk = Protolat_xkernel
module Ns = Protolat_netsim
module Obs = Protolat_obs
module Meter = Xk.Meter
module Msg = Xk.Msg

(* meter sites, interned at module initialisation *)
let s_chan_demux_map = Xk.Demux.caller "chan_demux"
let s_chan_call = Meter.Site.fn "chan_call"
let s_chan_call_setup = Meter.Site.block "chan_call" "setup"
let s_chan_call_busy = Meter.Site.cold "chan_call" "busy"
let s_chan_call_hdr = Meter.Site.block "chan_call" "hdr"
let s_chan_call_seqwrap = Meter.Site.cold "chan_call" "seqwrap"
let s_chan_call_send = Meter.Site.block "chan_call" "send"
let s_chan_call_send_0 = Meter.Site.call "chan_call" "send" 0
let s_event_register = Meter.Site.fn "event_register"
let s_event_register_insert = Meter.Site.block "event_register" "insert"
let s_event_register_expand = Meter.Site.cold "event_register" "expand"
let s_chan_call_send_1 = Meter.Site.call "chan_call" "send" 1
let s_chan_call_block = Meter.Site.block "chan_call" "block"
let s_chan_call_block_0 = Meter.Site.call "chan_call" "block" 0
let s_thread_block = Meter.Site.fn "thread_block"
let s_thread_block_save = Meter.Site.block "thread_block" "save"
let s_thread_block_stack_detach = Meter.Site.cold "thread_block" "stack_detach"
let s_chan_reply = Meter.Site.fn "chan_reply"
let s_chan_reply_build = Meter.Site.block "chan_reply" "build"
let s_chan_reply_build_0 = Meter.Site.call "chan_reply" "build" 0
let s_msg_prepare = Meter.Site.fn "msg_prepare"
let s_msg_prepare_body = Meter.Site.block "msg_prepare" "body"
let s_msg_prepare_grow = Meter.Site.cold "msg_prepare" "grow"
let s_chan_reply_nostate = Meter.Site.cold "chan_reply" "nostate"
let s_chan_reply_send = Meter.Site.block "chan_reply" "send"
let s_chan_reply_send_0 = Meter.Site.call "chan_reply" "send" 0
let s_chan_demux = Meter.Site.fn "chan_demux"
let s_chan_demux_parse = Meter.Site.block "chan_demux" "parse"
let s_chan_demux_oldseq = Meter.Site.cold "chan_demux" "oldseq"
let s_chan_demux_dupmsg = Meter.Site.cold "chan_demux" "dupmsg"
let s_chan_demux_reply = Meter.Site.block "chan_demux" "reply"
let s_chan_demux_reply_0 = Meter.Site.call "chan_demux" "reply" 0
let s_event_cancel = Meter.Site.fn "event_cancel"
let s_event_cancel_remove = Meter.Site.block "event_cancel" "remove"
let s_event_cancel_notfound = Meter.Site.cold "event_cancel" "notfound"
let s_chan_demux_reply_1 = Meter.Site.call "chan_demux" "reply" 1
let s_thread_signal = Meter.Site.fn "thread_signal"
let s_thread_signal_wake = Meter.Site.block "thread_signal" "wake"
let s_thread_signal_nowaiter = Meter.Site.cold "thread_signal" "nowaiter"
let s_chan_resume = Meter.Site.fn "chan_resume"
let s_chan_resume_resume = Meter.Site.block "chan_resume" "resume"
let s_chan_resume_badstate = Meter.Site.cold "chan_resume" "badstate"
let s_chan_resume_resume_0 = Meter.Site.call "chan_resume" "resume" 0
let s_chan_demux_request = Meter.Site.block "chan_demux" "request"
let s_chan_demux_request_0 = Meter.Site.call "chan_demux" "request" 0

type chan_state = {
  id : int;
  mutable seq : int;  (** client: sequence of the outstanding call *)
  mutable expected : int;  (** server: highest sequence processed *)
  mutable waiting : (bytes -> unit) option;
  mutable timeout : Xk.Event.handle;
  mutable last_request : bytes option;
  mutable last_reply : (int * bytes) option;
      (** (sequence it answered, payload): a replay must only answer a
          duplicate of that same sequence, never a later call that
          happens to reuse the channel *)
  mutable rexmt_tries : int;
}

type t = {
  env : Ns.Host_env.t;
  bid : Bid.t;
  peer_mac : int;
  channels : chan_state Xk.Map.t;
  inline : bool;
  mutable server : (chan:int -> bytes -> reply:(bytes -> unit) -> unit) option;
  mutable outstanding : int;
  c_req_retransmits : Obs.Metrics.counter;
  c_dup_requests : Obs.Metrics.counter;
  c_call_failures : Obs.Metrics.counter;
  mutable short_drops : int;  (* messages shorter than a CHAN header *)
}

let meter t = t.env.Ns.Host_env.meter

let ckey id = Printf.sprintf "c%04x" id

let get_chan t id =
  match Xk.Map.resolve t.channels (ckey id) with
  | Some c -> c
  | None ->
    let c =
      { id; seq = 0; expected = 0; waiting = None; timeout = Xk.Event.none;
        last_request = None; last_reply = None; rexmt_tries = 0 }
    in
    Xk.Map.bind t.channels (ckey id) c;
    c

let rexmt_timeout_us = 5000.0

let send_request t (c : chan_state) payload =
  let msg = Msg.alloc t.env.Ns.Host_env.simmem ~headroom:64 0 in
  Msg.set_payload msg payload;
  Msg.push msg
    (Hdrs.Chan.to_bytes
       { Hdrs.Chan.kind = Hdrs.Chan.Request;
         chan = c.id;
         seq = c.seq;
         len = Bytes.length payload });
  Bid.push t.bid ~dst:t.peer_mac msg

(* unanswered request retransmissions before the call is abandoned, so a
   dead server cannot keep a channel (and its timer) alive forever *)
let max_rexmt_tries = 10

let rec arm_timeout t (c : chan_state) =
  c.timeout <-
    Ns.Host_env.timeout t.env ~delay:rexmt_timeout_us (fun () ->
        match (c.waiting, c.last_request) with
        | Some _, Some payload ->
          if c.rexmt_tries >= max_rexmt_tries then begin
            (* give up: fail the call and release the channel *)
            Obs.Metrics.inc t.c_call_failures;
            Ns.Host_env.trace_instant t.env ~cat:"chan" ~name:"call_failure"
              ~a0:c.id;
            c.waiting <- None;
            c.timeout <- Xk.Event.none;
            c.last_request <- None;
            c.rexmt_tries <- 0;
            t.outstanding <- t.outstanding - 1
          end
          else
            Ns.Host_env.phase t.env "chan_rexmt" (fun () ->
                c.rexmt_tries <- c.rexmt_tries + 1;
                Ns.Host_env.retry t.env t.c_req_retransmits ~cat:"chan"
                  ~name:"req_retransmit" ~a0:c.rexmt_tries;
                send_request t c payload;
                arm_timeout t c)
        | _ -> ())

let call t ~chan msg ~reply =
  let m = meter t in
  m.Meter.enter s_chan_call;
  let c = get_chan t chan in
  m.Meter.read (Msg.sim_addr msg) 16;
  m.Meter.block s_chan_call_setup;
  let busy = c.waiting <> None in
  m.Meter.cold ~triggered:busy s_chan_call_busy;
  if busy then failwith "Chan.call: channel busy";
  c.seq <- c.seq + 1;
  m.Meter.write (Msg.sim_addr msg) Hdrs.Chan.size;
  m.Meter.block s_chan_call_hdr;
  m.Meter.cold ~triggered:(c.seq land 0xFFFF_FFFF <> c.seq) s_chan_call_seqwrap;
  let payload = Msg.contents msg in
  c.rexmt_tries <- 0;
  c.last_request <- Some payload;
  Msg.push msg
    (Hdrs.Chan.to_bytes
       { Hdrs.Chan.kind = Hdrs.Chan.Request;
         chan = c.id;
         seq = c.seq;
         len = Bytes.length payload });
  m.Meter.block s_chan_call_send;
  m.Meter.call s_chan_call_send_0;
  m.Meter.enter s_event_register;
  m.Meter.block s_event_register_insert;
  m.Meter.cold ~triggered:false s_event_register_expand;
  arm_timeout t c;
  m.Meter.leave s_event_register;
  m.Meter.call s_chan_call_send_1;
  Bid.push t.bid ~dst:t.peer_mac msg;
  (* block the calling thread: store the continuation *)
  m.Meter.block s_chan_call_block;
  m.Meter.call s_chan_call_block_0;
  m.Meter.enter s_thread_block;
  m.Meter.block s_thread_block_save;
  m.Meter.cold ~triggered:false s_thread_block_stack_detach;
  t.outstanding <- t.outstanding + 1;
  c.waiting <- Some reply;
  m.Meter.leave s_thread_block;
  m.Meter.leave s_chan_call

let send_reply t (c : chan_state) seq payload =
  let m = meter t in
  m.Meter.enter s_chan_reply;
  m.Meter.block s_chan_reply_build;
  m.Meter.call s_chan_reply_build_0;
  let msg = Msg.alloc t.env.Ns.Host_env.simmem ~headroom:64 0 in
  m.Meter.enter s_msg_prepare;
  m.Meter.write (Msg.sim_addr msg) 16;
  m.Meter.block s_msg_prepare_body;
  m.Meter.cold ~triggered:false s_msg_prepare_grow;
  Msg.set_payload msg payload;
  m.Meter.leave s_msg_prepare;
  m.Meter.cold ~triggered:false s_chan_reply_nostate;
  Msg.push msg
    (Hdrs.Chan.to_bytes
       { Hdrs.Chan.kind = Hdrs.Chan.Reply;
         chan = c.id;
         seq;
         len = Bytes.length payload });
  c.last_reply <- Some (seq, payload);
  m.Meter.block s_chan_reply_send;
  m.Meter.call s_chan_reply_send_0;
  Bid.push t.bid ~dst:t.peer_mac msg;
  m.Meter.leave s_chan_reply

let demux_msg t msg =
  let m = meter t in
  m.Meter.enter s_chan_demux;
  m.Meter.read (Msg.sim_addr msg) Hdrs.Chan.size;
  m.Meter.block s_chan_demux_parse;
  let hdr = Hdrs.Chan.of_bytes (Msg.pop msg Hdrs.Chan.size) in
  let c =
    match
      Xk.Demux.lookup m ~inline:t.inline ~caller:s_chan_demux_map t.channels
        (ckey hdr.Hdrs.Chan.chan)
    with
    | Some c -> c
    | None -> get_chan t hdr.Hdrs.Chan.chan
  in
  begin match hdr.Hdrs.Chan.kind with
  | Hdrs.Chan.Reply ->
    let old = hdr.Hdrs.Chan.seq < c.seq in
    m.Meter.cold ~triggered:old s_chan_demux_oldseq;
    m.Meter.cold ~triggered:false s_chan_demux_dupmsg;
    if not old then begin
      m.Meter.block s_chan_demux_reply;
      m.Meter.call s_chan_demux_reply_0;
      m.Meter.enter s_event_cancel;
      m.Meter.block s_event_cancel_remove;
      m.Meter.cold ~triggered:false s_event_cancel_notfound;
      ignore (Xk.Event.cancel t.env.Ns.Host_env.events c.timeout);
      c.timeout <- Xk.Event.none;
      m.Meter.leave s_event_cancel;
      m.Meter.call s_chan_demux_reply_1;
      m.Meter.enter s_thread_signal;
      m.Meter.block s_thread_signal_wake;
      m.Meter.cold ~triggered:(c.waiting = None) s_thread_signal_nowaiter;
      (match c.waiting with
       | None -> ()
       | Some k ->
         c.waiting <- None;
         t.outstanding <- t.outstanding - 1;
         let data = Msg.contents msg in
         Xk.Thread.spawn t.env.Ns.Host_env.sched ~name:"chan_resume"
           (fun () ->
             m.Meter.enter s_chan_resume;
             m.Meter.block s_chan_resume_resume;
             m.Meter.cold ~triggered:false s_chan_resume_badstate;
             m.Meter.call s_chan_resume_resume_0;
             k data;
             m.Meter.leave s_chan_resume));
      m.Meter.leave s_thread_signal
    end
  | Hdrs.Chan.Request -> (
    m.Meter.cold ~triggered:false s_chan_demux_oldseq;
    let dup = hdr.Hdrs.Chan.seq <= c.expected in
    m.Meter.cold ~triggered:dup s_chan_demux_dupmsg;
    if dup then begin
      Obs.Metrics.inc t.c_dup_requests;
      (* at-most-once: replay the cached reply, but only if it
         answered this very sequence — an unanswered request must
         stay unanswered, not inherit an older call's reply *)
      match c.last_reply with
      | Some (rseq, r) when rseq = hdr.Hdrs.Chan.seq ->
        send_reply t c hdr.Hdrs.Chan.seq r
      | _ -> ()
    end
    else begin
      c.expected <- hdr.Hdrs.Chan.seq;
      m.Meter.block s_chan_demux_request;
      m.Meter.call s_chan_demux_request_0;
      match t.server with
      | None -> ()
      | Some dispatch ->
        (* requests are shepherded by a worker thread (x-kernel style):
           the dispatch runs as a continuation after a context switch *)
        let data = Msg.contents msg in
        Xk.Thread.spawn t.env.Ns.Host_env.sched ~name:"chan_shepherd"
          (fun () ->
            dispatch ~chan:hdr.Hdrs.Chan.chan data ~reply:(fun r ->
                send_reply t c hdr.Hdrs.Chan.seq r))
    end)
  end;
  m.Meter.leave s_chan_demux

(* a message too short for a CHAN header is a counted drop, before the
   metered parse *)
let demux t ~src:_ msg =
  if Msg.len msg < Hdrs.Chan.size then t.short_drops <- t.short_drops + 1
  else demux_msg t msg

let create env bid ~peer_mac ?(map_cache_inline = true) () =
  let c = Obs.Metrics.counter env.Ns.Host_env.metrics in
  let t =
    { env;
      bid;
      peer_mac;
      channels = Xk.Map.create ~buckets:32 ();
      inline = map_cache_inline;
      server = None;
      outstanding = 0;
      c_req_retransmits = c "chan.req_retransmits";
      c_dup_requests = c "chan.dup_requests";
      c_call_failures = c "chan.call_failures";
      short_drops = 0 }
  in
  Bid.set_upper bid (fun ~src msg -> demux t ~src msg);
  t

let set_server t f = t.server <- Some f

let outstanding t = t.outstanding

let request_retransmits t = Obs.Metrics.value t.c_req_retransmits

let duplicate_requests t = Obs.Metrics.value t.c_dup_requests

let call_failures t = Obs.Metrics.value t.c_call_failures

let short_drops t = t.short_drops

let map_counters t = Xk.Map.counters t.channels

let map_size t = Xk.Map.size t.channels

let map_nonempty_buckets t = Xk.Map.nonempty_list_length t.channels

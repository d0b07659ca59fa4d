module Simmem = Protolat_xkernel.Simmem
module Hexkey = Protolat_util.Hexkey

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait

type t = {
  mutable state : state;
  local_ip : int;
  local_port : int;
  mutable remote_ip : int;
  mutable remote_port : int;
  mutable iss : int;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable snd_wnd : int;
  mutable snd_cwnd : int;
  mutable snd_ssthresh : int;
  mutable snd_max_wnd : int;
  mutable irs : int;
  mutable rcv_nxt : int;
  mutable rcv_wnd : int;
  mutable rcv_adv : int;
  mutable mss : int;
  mutable srtt : int;
  mutable rttvar : int;
  mutable rtt_seq : int;
  mutable rtt_start_us : float;
  mutable delack_pending : bool;
  mutable dupacks : int;
  mutable segments_in : int;
  mutable segments_out : int;
  mutable retransmits : int;
  mutable rexmt_shift : int;
      (** consecutive retransmissions of the same data: exponential
          backoff exponent, reset when new data is acked (Karn) *)
  sim_addr : int;
}

let sim_size = 192

let create sim ~local_ip ~local_port ~remote_ip ~remote_port ~iss =
  { state = Closed;
    local_ip;
    local_port;
    remote_ip;
    remote_port;
    iss;
    snd_una = iss;
    snd_nxt = iss;
    snd_wnd = 0;
    snd_cwnd = 4096;
    snd_ssthresh = 65535;
    snd_max_wnd = 0;
    irs = 0;
    rcv_nxt = 0;
    rcv_wnd = 4096;
    rcv_adv = 0;
    mss = 1460;
    srtt = 0;
    rttvar = 24;
    rtt_seq = -1;
    rtt_start_us = 0.0;
    delack_pending = false;
    dupacks = 0;
    segments_in = 0;
    segments_out = 0;
    retransmits = 0;
    rexmt_shift = 0;
    sim_addr = Simmem.alloc sim sim_size }

(* the text of [Printf.sprintf "%04x:%08x:%04x"], built directly: every
   segment in and out formats one *)
let key ~local_port ~remote_ip ~remote_port =
  let n1 = Hexkey.digits ~width:4 local_port in
  let n2 = Hexkey.digits ~width:8 remote_ip in
  let n3 = Hexkey.digits ~width:4 remote_port in
  let b = Bytes.create (n1 + n2 + n3 + 2) in
  let p = Hexkey.blit b 0 ~digits:n1 local_port in
  Bytes.set b p ':';
  let p = Hexkey.blit b (p + 1) ~digits:n2 remote_ip in
  Bytes.set b p ':';
  ignore (Hexkey.blit b (p + 1) ~digits:n3 remote_port);
  Bytes.unsafe_to_string b

let key_of t =
  key ~local_port:t.local_port ~remote_ip:t.remote_ip
    ~remote_port:t.remote_port

let state_string = function
  | Closed -> "CLOSED"
  | Listen -> "LISTEN"
  | Syn_sent -> "SYN_SENT"
  | Syn_received -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Close_wait -> "CLOSE_WAIT"
  | Closing -> "CLOSING"
  | Last_ack -> "LAST_ACK"
  | Time_wait -> "TIME_WAIT"

(* BSD 4.4 tcp_xmit_timer, ticks scaled by 8 (srtt) and 4 (rttvar).  A
   sub-tick measurement still counts as one tick, or srtt would stay 0
   and keep re-initializing. *)
let update_rtt t rtt =
  let rtt = max 1 rtt in
  if t.srtt <> 0 then begin
    let delta = rtt - 1 - (t.srtt lsr 3) in
    t.srtt <- max 1 (t.srtt + delta);
    let delta = abs delta - (t.rttvar lsr 2) in
    t.rttvar <- max 1 (t.rttvar + delta)
  end
  else begin
    t.srtt <- rtt lsl 3;
    t.rttvar <- rtt lsl 1
  end;
  t.rtt_seq <- -1

(* minimum RTO of 6 ticks (~5.9 ms): the floor must clear the peer's 2 ms
   delayed-ack timer plus wire and processing time, or every one-way send
   retransmits spuriously (BSD's TCPTV_MIN serves the same purpose) *)
let rto_ticks t = max 6 ((t.srtt lsr 3) + t.rttvar)

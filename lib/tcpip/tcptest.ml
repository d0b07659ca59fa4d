module Xk = Protolat_xkernel
module Ns = Protolat_netsim
module Meter = Xk.Meter
module Msg = Xk.Msg

(* meter sites, interned at module initialisation *)
let s_tcptest_send = Meter.Site.fn "tcptest_send"
let s_tcptest_send_init = Meter.Site.cold "tcptest_send" "init"
let s_tcptest_send_main = Meter.Site.block "tcptest_send" "main"
let s_tcptest_send_main_0 = Meter.Site.call "tcptest_send" "main" 0
let s_msg_prepare = Meter.Site.fn "msg_prepare"
let s_msg_prepare_body = Meter.Site.block "msg_prepare" "body"
let s_msg_prepare_grow = Meter.Site.cold "msg_prepare" "grow"
let s_tcptest_send_main_1 = Meter.Site.call "tcptest_send" "main" 1
let s_tcptest_recv = Meter.Site.fn "tcptest_recv"
let s_tcptest_recv_main = Meter.Site.block "tcptest_recv" "main"
let s_tcptest_recv_done_check = Meter.Site.cold "tcptest_recv" "done_check"
let s_tcptest_recv_main_0 = Meter.Site.call "tcptest_recv" "main" 0

type role =
  | Client
  | Server

type t = {
  env : Ns.Host_env.t;
  tcp : Tcp.t;
  role : role;
  msg : Msg.t;  (** reused send buffer *)
  mutable session : Tcp.session option;
  mutable remaining : int;
  mutable completed : int;
  mutable first_send : bool;
  mutable on_roundtrip : int -> unit;
  mutable on_complete : unit -> unit;
}

let meter t = t.env.Ns.Host_env.meter

let payload = Bytes.make 1 'p'

let tcptest_send t =
  let m = meter t in
  let env = t.env in
  Ns.Host_env.mark env Protolat_obs.Span.mark_tx_proto;
  m.Meter.enter s_tcptest_send;
  (match t.session with
  | None -> failwith "Tcptest: no session"
  | Some s ->
    m.Meter.cold ~triggered:t.first_send s_tcptest_send_init;
    t.first_send <- false;
    m.Meter.write (Msg.sim_addr t.msg) 8;
    m.Meter.block s_tcptest_send_main;
    m.Meter.call s_tcptest_send_main_0;
    m.Meter.enter s_msg_prepare;
    m.Meter.write (Msg.sim_addr t.msg) 16;
    m.Meter.block s_msg_prepare_body;
    m.Meter.cold ~triggered:false s_msg_prepare_grow;
    Msg.set_payload t.msg payload;
    m.Meter.leave s_msg_prepare;
    m.Meter.call s_tcptest_send_main_1;
    Tcp.send_msg s t.msg);
  m.Meter.leave s_tcptest_send

let tcptest_recv t _data =
  let m = meter t in
  let env = t.env in
  Ns.Host_env.mark env Protolat_obs.Span.mark_app;
  m.Meter.enter s_tcptest_recv;
  m.Meter.block s_tcptest_recv_main;
  begin match t.role with
  | Server ->
    m.Meter.cold ~triggered:false s_tcptest_recv_done_check;
    m.Meter.call s_tcptest_recv_main_0;
    tcptest_send t
  | Client ->
    t.remaining <- t.remaining - 1;
    t.completed <- t.completed + 1;
    t.on_roundtrip t.completed;
    let finished = t.remaining <= 0 in
    m.Meter.cold ~triggered:finished s_tcptest_recv_done_check;
    if finished then t.on_complete ()
    else begin
      m.Meter.call s_tcptest_recv_main_0;
      tcptest_send t
    end
  end;
  m.Meter.leave s_tcptest_recv

let make env tcp role rounds =
  { env;
    tcp;
    role;
    msg = Msg.alloc env.Ns.Host_env.simmem ~headroom:128 64;
    session = None;
    remaining = rounds;
    completed = 0;
    first_send = true;
    on_roundtrip = (fun _ -> ());
    on_complete = (fun () -> ()) }

let client env tcp ~local_port ~remote_ip ~remote_port ~rounds =
  let t = make env tcp Client rounds in
  let session =
    Tcp.connect tcp ~local_port ~remote_ip ~remote_port ~receive:(fun _ data ->
        tcptest_recv t data)
  in
  t.session <- Some session;
  t

let server env tcp ~port =
  let t = make env tcp Server 0 in
  Tcp.listen tcp ~port ~receive:(fun s data ->
      if t.session = None then t.session <- Some s;
      tcptest_recv t data);
  t

let start t =
  match t.session with
  | Some s when Tcp.state s = Tcb.Established ->
    Ns.Host_env.phase t.env "client_send" (fun () -> tcptest_send t)
  | _ -> failwith "Tcptest.start: connection not established"

let session t = t.session

let rounds_completed t = t.completed

let set_on_roundtrip t f = t.on_roundtrip <- f

let set_on_complete t f = t.on_complete <- f

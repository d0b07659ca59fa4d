module Xk = Protolat_xkernel
module Ns = Protolat_netsim
module Meter = Xk.Meter
module Msg = Xk.Msg

(* meter sites, interned at module initialisation *)
let s_xrpctest_call = Meter.Site.fn "xrpctest_call"
let s_xrpctest_call_init = Meter.Site.cold "xrpctest_call" "init"
let s_xrpctest_call_main = Meter.Site.block "xrpctest_call" "main"
let s_xrpctest_call_main_0 = Meter.Site.call "xrpctest_call" "main" 0
let s_msg_prepare = Meter.Site.fn "msg_prepare"
let s_msg_prepare_body = Meter.Site.block "msg_prepare" "body"
let s_msg_prepare_grow = Meter.Site.cold "msg_prepare" "grow"
let s_xrpctest_call_main_1 = Meter.Site.call "xrpctest_call" "main" 1
let s_xrpctest_cont = Meter.Site.fn "xrpctest_cont"
let s_xrpctest_cont_cont = Meter.Site.block "xrpctest_cont" "cont"
let s_xrpctest_cont_done_check = Meter.Site.cold "xrpctest_cont" "done_check"
let s_xrpctest_cont_cont_0 = Meter.Site.call "xrpctest_cont" "cont" 0
let s_xrpctest_serve = Meter.Site.fn "xrpctest_serve"
let s_xrpctest_serve_serve = Meter.Site.block "xrpctest_serve" "serve"
let s_xrpctest_serve_unknownproc = Meter.Site.cold "xrpctest_serve" "unknownproc"
let s_xrpctest_serve_serve_0 = Meter.Site.call "xrpctest_serve" "serve" 0

type t = {
  env : Ns.Host_env.t;
  mselect : Mselect.t;
  client_id : int;
  mutable remaining : int;
  mutable completed : int;
  mutable first : bool;
  mutable on_roundtrip : int -> unit;
  mutable on_complete : unit -> unit;
}

let meter t = t.env.Ns.Host_env.meter

let rec xrpctest_call t =
  let m = meter t in
  Ns.Host_env.mark t.env Protolat_obs.Span.mark_tx_proto;
  m.Meter.enter s_xrpctest_call;
  m.Meter.cold ~triggered:t.first s_xrpctest_call_init;
  t.first <- false;
  m.Meter.block s_xrpctest_call_main;
  m.Meter.call s_xrpctest_call_main_0;
  let msg = Msg.alloc t.env.Ns.Host_env.simmem ~headroom:64 0 in
  m.Meter.enter s_msg_prepare;
  m.Meter.write (Msg.sim_addr msg) 16;
  m.Meter.block s_msg_prepare_body;
  m.Meter.cold ~triggered:false s_msg_prepare_grow;
  Msg.set_payload msg Bytes.empty;
  m.Meter.leave s_msg_prepare;
  m.Meter.call s_xrpctest_call_main_1;
  Mselect.call t.mselect ~client:t.client_id msg ~reply:(fun _data ->
      xrpctest_cont t);
  m.Meter.leave s_xrpctest_call

and xrpctest_cont t =
  let m = meter t in
  Ns.Host_env.mark t.env Protolat_obs.Span.mark_app;
  m.Meter.enter s_xrpctest_cont;
  m.Meter.block s_xrpctest_cont_cont;
  t.remaining <- t.remaining - 1;
  t.completed <- t.completed + 1;
  t.on_roundtrip t.completed;
  let finished = t.remaining <= 0 in
  m.Meter.cold ~triggered:finished s_xrpctest_cont_done_check;
  if finished then t.on_complete ()
  else begin
    m.Meter.call s_xrpctest_cont_cont_0;
    xrpctest_call t
  end;
  m.Meter.leave s_xrpctest_cont

let client env mselect ~client_id ~rounds =
  { env;
    mselect;
    client_id;
    remaining = rounds;
    completed = 0;
    first = true;
    on_roundtrip = (fun _ -> ());
    on_complete = (fun () -> ()) }

let server env mselect ~client_id =
  let t =
    { env;
      mselect;
      client_id;
      remaining = 0;
      completed = 0;
      first = true;
      on_roundtrip = (fun _ -> ());
      on_complete = (fun () -> ()) }
  in
  Mselect.register mselect ~client:client_id (fun _data ~reply ->
      let m = meter t in
      Ns.Host_env.mark t.env Protolat_obs.Span.mark_app;
      m.Meter.enter s_xrpctest_serve;
      t.completed <- t.completed + 1;
      m.Meter.block s_xrpctest_serve_serve;
      m.Meter.cold ~triggered:false s_xrpctest_serve_unknownproc;
      m.Meter.call s_xrpctest_serve_serve_0;
      Ns.Host_env.mark t.env Protolat_obs.Span.mark_tx_proto;
      reply Bytes.empty;
      m.Meter.leave s_xrpctest_serve);
  t

let start t =
  Ns.Host_env.phase t.env "client_call" (fun () -> xrpctest_call t)

let rounds_completed t = t.completed

let set_on_roundtrip t f = t.on_roundtrip <- f

let set_on_complete t f = t.on_complete <- f

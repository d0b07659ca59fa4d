module Xk = Protolat_xkernel
module Ns = Protolat_netsim
module Meter = Xk.Meter
module Msg = Xk.Msg

(* meter sites, interned at module initialisation *)
let s_mselect_demux = Meter.Site.fn "mselect_demux"
let s_mselect_demux_dispatch = Meter.Site.block "mselect_demux" "dispatch"
let s_mselect_demux_badclient = Meter.Site.cold "mselect_demux" "badclient"
let s_mselect_demux_dispatch_0 = Meter.Site.call "mselect_demux" "dispatch" 0
let s_mselect_call = Meter.Site.fn "mselect_call"
let s_mselect_call_select = Meter.Site.block "mselect_call" "select"
let s_mselect_call_nochan = Meter.Site.cold "mselect_call" "nochan"
let s_mselect_call_select_0 = Meter.Site.call "mselect_call" "select" 0

type t = {
  env : Ns.Host_env.t;
  vchan : Vchan.t;
  handlers : (int, bytes -> reply:(bytes -> unit) -> unit) Hashtbl.t;
}

let meter t = t.env.Ns.Host_env.meter

let create env vchan =
  let t = { env; vchan; handlers = Hashtbl.create 8 } in
  Vchan.set_upper vchan (fun data ~reply ->
      let m = env.Ns.Host_env.meter in
      m.Meter.enter s_mselect_demux;
      m.Meter.block s_mselect_demux_dispatch;
      if Bytes.length data < Hdrs.Mux.size then
        m.Meter.cold ~triggered:true s_mselect_demux_badclient
      else begin
        let client = Hdrs.Mux.of_bytes data in
        let body =
          Bytes.sub data Hdrs.Mux.size (Bytes.length data - Hdrs.Mux.size)
        in
        match Hashtbl.find_opt t.handlers client with
        | None -> m.Meter.cold ~triggered:true s_mselect_demux_badclient
        | Some h ->
          m.Meter.cold ~triggered:false s_mselect_demux_badclient;
          m.Meter.call s_mselect_demux_dispatch_0;
          h body ~reply
      end;
      m.Meter.leave s_mselect_demux);
  t

let call t ~client msg ~reply =
  let m = meter t in
  m.Meter.enter s_mselect_call;
  m.Meter.write (Msg.sim_addr msg) Hdrs.Mux.size;
  m.Meter.block s_mselect_call_select;
  m.Meter.cold ~triggered:false s_mselect_call_nochan;
  Msg.push msg (Hdrs.Mux.to_bytes client);
  m.Meter.call s_mselect_call_select_0;
  Vchan.call t.vchan msg ~reply;
  m.Meter.leave s_mselect_call

let register t ~client h = Hashtbl.replace t.handlers client h

module Xk = Protolat_xkernel
module Ns = Protolat_netsim
module Meter = Xk.Meter

(* meter sites, interned at module initialisation *)
let s_vnet_demux = Meter.Site.fn "vnet_demux"
let s_vnet_demux_fwd = Meter.Site.block "vnet_demux" "fwd"
let s_vnet_demux_fwd_0 = Meter.Site.call "vnet_demux" "fwd" 0
let s_vnet_push = Meter.Site.fn "vnet_push"
let s_vnet_push_fwd = Meter.Site.block "vnet_push" "fwd"
let s_vnet_push_fwd_0 = Meter.Site.call "vnet_push" "fwd" 0

type t = {
  env : Ns.Host_env.t;
  netdev : Ns.Netdev.t;
  ethertype : int;
  routes : (int, int) Hashtbl.t;
  mutable resolver : (int -> (int -> unit) -> unit) option;
  mutable upper : src_mac:int -> Xk.Msg.t -> unit;
}

let create env netdev ~ethertype =
  let t =
    { env; netdev; ethertype; routes = Hashtbl.create 8; resolver = None;
      upper = (fun ~src_mac:_ _ -> ()) }
  in
  Ns.Netdev.register netdev ~ethertype (fun ~src msg ->
      let m = env.Ns.Host_env.meter in
      m.Meter.enter s_vnet_demux;
      m.Meter.block s_vnet_demux_fwd;
      m.Meter.call s_vnet_demux_fwd_0;
      t.upper ~src_mac:src msg;
      m.Meter.leave s_vnet_demux);
  t

let add_route t ~ip ~mac = Hashtbl.replace t.routes ip mac

let has_route t ~ip = Hashtbl.mem t.routes ip || t.resolver <> None

let set_resolver t f = t.resolver <- Some f

let set_upper t f = t.upper <- f

let push t ~dst_ip msg =
  let m = t.env.Ns.Host_env.meter in
  m.Meter.enter s_vnet_push;
  m.Meter.block s_vnet_push_fwd;
  begin match Hashtbl.find_opt t.routes dst_ip with
  | Some mac ->
    m.Meter.call s_vnet_push_fwd_0;
    Ns.Netdev.send t.netdev ~dst:mac ~ethertype:t.ethertype msg
  | None -> (
    match t.resolver with
    | None -> failwith "Vnet.push: no route"
    | Some resolve ->
      m.Meter.call s_vnet_push_fwd_0;
      resolve dst_ip (fun mac ->
          Hashtbl.replace t.routes dst_ip mac;
          Ns.Netdev.send t.netdev ~dst:mac ~ethertype:t.ethertype msg))
  end;
  m.Meter.leave s_vnet_push

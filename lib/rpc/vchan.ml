module Xk = Protolat_xkernel
module Ns = Protolat_netsim
module Meter = Xk.Meter

(* meter sites, interned at module initialisation *)
let s_vchan_demux = Meter.Site.fn "vchan_demux"
let s_vchan_demux_fwd = Meter.Site.block "vchan_demux" "fwd"
let s_vchan_demux_fwd_0 = Meter.Site.call "vchan_demux" "fwd" 0
let s_vchan_call = Meter.Site.fn "vchan_call"
let s_vchan_call_alloc = Meter.Site.block "vchan_call" "alloc"
let s_vchan_call_growpool = Meter.Site.cold "vchan_call" "growpool"
let s_vchan_call_alloc_0 = Meter.Site.call "vchan_call" "alloc" 0

type t = {
  env : Ns.Host_env.t;
  chan : Chan.t;
  mutable free : int list;
  mutable next : int;
  mutable upper : bytes -> reply:(bytes -> unit) -> unit;
}

let meter t = t.env.Ns.Host_env.meter

let create env chan ?(channels = 8) () =
  let t =
    { env;
      chan;
      free = List.init channels (fun i -> i + 1);
      next = channels + 1;
      upper = (fun _ ~reply:_ -> ()) }
  in
  Chan.set_server chan (fun ~chan:_ data ~reply ->
      let m = env.Ns.Host_env.meter in
      m.Meter.enter s_vchan_demux;
      m.Meter.block s_vchan_demux_fwd;
      m.Meter.call s_vchan_demux_fwd_0;
      t.upper data ~reply;
      m.Meter.leave s_vchan_demux);
  t

let call t msg ~reply =
  let m = meter t in
  m.Meter.enter s_vchan_call;
  m.Meter.block s_vchan_call_alloc;
  let grow = t.free = [] in
  m.Meter.cold ~triggered:grow s_vchan_call_growpool;
  let id =
    match t.free with
    | id :: rest ->
      t.free <- rest;
      id
    | [] ->
      let id = t.next in
      t.next <- t.next + 1;
      id
  in
  m.Meter.call s_vchan_call_alloc_0;
  Chan.call t.chan ~chan:id msg ~reply:(fun data ->
      t.free <- id :: t.free;
      reply data);
  m.Meter.leave s_vchan_call

let set_upper t f = t.upper <- f

let free_channels t = List.length t.free

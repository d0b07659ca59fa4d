module Xk = Protolat_xkernel
module Ns = Protolat_netsim
module Meter = Xk.Meter
module Msg = Xk.Msg

(* meter sites, interned at module initialisation *)
let s_bid_push = Meter.Site.fn "bid_push"
let s_bid_push_stamp = Meter.Site.block "bid_push" "stamp"
let s_bid_push_newboot = Meter.Site.cold "bid_push" "newboot"
let s_bid_push_stamp_0 = Meter.Site.call "bid_push" "stamp" 0
let s_bid_demux = Meter.Site.fn "bid_demux"
let s_bid_demux_check = Meter.Site.block "bid_demux" "check"
let s_bid_demux_bootmiss = Meter.Site.cold "bid_demux" "bootmiss"
let s_bid_demux_deliver = Meter.Site.block "bid_demux" "deliver"
let s_bid_demux_deliver_0 = Meter.Site.call "bid_demux" "deliver" 0

type t = {
  env : Ns.Host_env.t;
  blast : Blast.t;
  boot_id : int;
  mutable peer_boot : int;
  mutable upper : src:int -> Msg.t -> unit;
  mutable stale_drops : int;
  mutable short_drops : int;  (* messages shorter than a BID header *)
}

let meter t = t.env.Ns.Host_env.meter

let push t ~dst msg =
  let m = meter t in
  m.Meter.enter s_bid_push;
  m.Meter.write (Msg.sim_addr msg) Hdrs.Bid.size;
  m.Meter.block s_bid_push_stamp;
  m.Meter.cold ~triggered:(t.peer_boot = 0) s_bid_push_newboot;
  Msg.push msg
    (Hdrs.Bid.to_bytes
       { Hdrs.Bid.my_boot = t.boot_id; your_boot = t.peer_boot });
  m.Meter.call s_bid_push_stamp_0;
  Blast.push t.blast ~dst msg;
  m.Meter.leave s_bid_push

let demux_msg t ~src msg =
  let m = meter t in
  m.Meter.enter s_bid_demux;
  m.Meter.read (Msg.sim_addr msg) Hdrs.Bid.size;
  m.Meter.block s_bid_demux_check;
  let hdr = Hdrs.Bid.of_bytes (Msg.pop msg Hdrs.Bid.size) in
  let known = t.peer_boot <> 0 in
  let stale = known && hdr.Hdrs.Bid.my_boot < t.peer_boot in
  let fresh = (not known) || hdr.Hdrs.Bid.my_boot > t.peer_boot in
  m.Meter.cold ~triggered:(stale || fresh) s_bid_demux_bootmiss;
  if stale then t.stale_drops <- t.stale_drops + 1
  else begin
    if fresh then t.peer_boot <- hdr.Hdrs.Bid.my_boot;
    m.Meter.block s_bid_demux_deliver;
    m.Meter.call s_bid_demux_deliver_0;
    t.upper ~src msg
  end;
  m.Meter.leave s_bid_demux

(* a message too short for a BID header is a counted drop, before the
   metered parse *)
let demux t ~src msg =
  if Msg.len msg < Hdrs.Bid.size then t.short_drops <- t.short_drops + 1
  else demux_msg t ~src msg

let create env blast ~boot_id =
  let t =
    { env;
      blast;
      boot_id;
      peer_boot = 0;
      upper = (fun ~src:_ _ -> ());
      stale_drops = 0;
      short_drops = 0 }
  in
  Blast.set_upper blast (fun ~src msg -> demux t ~src msg);
  t

let set_upper t f = t.upper <- f

let boot_id t = t.boot_id

let peer_boot t = t.peer_boot

let stale_drops t = t.stale_drops

let short_drops t = t.short_drops

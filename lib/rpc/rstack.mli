(** Wiring of the RPC test configuration: two hosts on an isolated
    Ethernet, each running XRPCTEST / MSELECT / VCHAN / CHAN / BID / BLAST /
    ETH / LANCE (Figure 1, right). *)

module Xk = Protolat_xkernel
module Ns = Protolat_netsim
module Obs = Protolat_obs

type host = {
  env : Ns.Host_env.t;
  lance : Ns.Lance.t;
  netdev : Ns.Netdev.t;
  blast : Blast.t;
  bid : Bid.t;
  chan : Chan.t;
  vchan : Vchan.t;
  mselect : Mselect.t;
  mac : int;
}

val ethertype_rpc : int

(** The records every stack shares, re-exported with their fields. *)
type 'h gpair = 'h Protolat_tcpip.Stack.gpair = {
  sim : Ns.Sim.t;
  link : Ns.Ether.Link.t;
  client : 'h;
  server : 'h;
  metrics : Obs.Metrics.t;
}

type 'h gnet = 'h Protolat_tcpip.Stack.gnet = {
  n_sim : Ns.Sim.t;
  fabric : Ns.Fabric.t;
  hosts : 'h array;
  n_metrics : Obs.Metrics.t;
}

type pair = host gpair

type net = host gnet

val mac_of : int -> int

val make_net :
  ?opts_for:(int -> Protolat_tcpip.Opts.t) ->
  ?meter_for:(int -> Xk.Meter.t option) ->
  topology:Ns.Topology.t ->
  unit ->
  net
(** {!Protolat_tcpip.Stack.build_net} with RPC hosts, each host's CHAN
    bound to the other.  Over {!Ns.Topology.pair} this reproduces the
    historic construction bit for bit; [star]/[line] with 2 hosts exercise
    the switched forwarding path.
    @raise Invalid_argument unless the topology has exactly 2 hosts (the
    request-reply channel stack is two-party). *)

val pair_of_net : net -> pair

val make_tests : pair -> rounds:int -> Xrpctest.t * Xrpctest.t
(** (client, server) test protocols, client configured for [rounds]. *)

val figure1 : unit -> Xk.Protocol.t

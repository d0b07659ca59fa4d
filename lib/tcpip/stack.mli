(** Wiring of the full TCP/IP test configuration: two hosts (client and
    server) on an isolated Ethernet, each running
    TCPTEST / TCP / IP / VNET / ETH / LANCE (Figure 1, left). *)

module Xk = Protolat_xkernel
module Ns = Protolat_netsim
module Obs = Protolat_obs

type host = {
  env : Ns.Host_env.t;
  lance : Ns.Lance.t;
  netdev : Ns.Netdev.t;
  vnet : Vnet.t;
  ip : Ip.t;
  tcp : Tcp.t;
  udp : Udp.t;
  mac : int;
  ip_addr : int;
}

val ethertype_ip : int

val make_host :
  Ns.Sim.t ->
  Ns.Ether.Link.t ->
  station:int ->
  mac:int ->
  ip_addr:int ->
  opts:Opts.t ->
  ?meter:Xk.Meter.t ->
  ?metrics:Obs.Metrics.t ->
  ?simmem_base:int ->
  unit ->
  host
(** One TCP/IP host: its environment, LANCE driver and ETH layer (the half
    both stacks share), then VNET, IP, TCP and UDP.  Its host code is
    [station], the two-host convention.  Routes are the caller's. *)

(** Two hosts of either stack: host 0 is the client, host 1 the server. *)
type 'h gpair = {
  sim : Ns.Sim.t;
  link : Ns.Ether.Link.t;
  client : 'h;
  server : 'h;
  metrics : Obs.Metrics.t;
      (** root registry; hosts register under [client.]/[server.], the wire
          under [link.] *)
}

(** N hosts of either stack wired per a {!Ns.Topology.t}: the
    topology-first construction every harness builds on.  Hosts 0 and 1
    keep the historic [client]/[server] metric scopes and simulated-memory
    bases; hosts beyond register under [h<i>.]. *)
type 'h gnet = {
  n_sim : Ns.Sim.t;
  fabric : Ns.Fabric.t;
  hosts : 'h array;
  n_metrics : Obs.Metrics.t;
}

type pair = host gpair

type net = host gnet

val mac_of : int -> int
(** Host [i]'s link-layer address ([0x08002B000001 + i]; hosts 0/1 match
    the historic client/server MACs). *)

val ip_of : int -> int
(** Host [i]'s IP ([192.168.0.1 + i]). *)

val scope_of : int -> string
(** Host [i]'s metric scope: ["client"], ["server"], then ["h<i>"]. *)

val build_net :
  opts_for:(int -> Opts.t) ->
  meter_for:(int -> Xk.Meter.t option) ->
  topology:Ns.Topology.t ->
  mac_of:(int -> int) ->
  (int -> opts:Opts.t -> Ns.Host_env.t * Ns.Lance.t * Ns.Netdev.t -> 'h) ->
  'h gnet
(** The net builder of both stacks: the simulator, metrics root and
    fabric, then each host in index order — its environment, LANCE and ETH
    (options [opts_for i], meter [meter_for i], host code [i]) and the
    upper layers the last argument builds on them. *)

val make_net :
  ?opts_for:(int -> Opts.t) ->
  ?meter_for:(int -> Xk.Meter.t option) ->
  topology:Ns.Topology.t ->
  unit ->
  net
(** {!build_net} with TCP/IP hosts at {!mac_of}/{!ip_of} (default options
    {!Opts.improved}, no meter), then full routing tables once every host
    exists.  Over {!Ns.Topology.pair} this
    reproduces the historic two-host construction bit for bit. *)

val pair_of_net : 'h gnet -> 'h gpair
(** Two-host view: host 0 as client, host 1 as server, host 0's access
    segment as the link.
    @raise Invalid_argument unless the net has exactly 2 hosts. *)

val establish :
  pair -> rounds:int -> Tcptest.t * Tcptest.t
(** Create server and client test protocols and run the simulation until
    the three-way handshake completes.  Returns (client, server).
    @raise Failure if the connection does not establish. *)

val teardown : pair -> unit
(** Run in 2 ms slices, sweeping the server's then the client's PCB map
    after each (reaping what a departed or crashed peer left half-closed),
    until both maps are empty or 60 simulated seconds pass. *)

val figure1 : unit -> Xk.Protocol.t
(** The TCP/IP protocol graph of Figure 1. *)

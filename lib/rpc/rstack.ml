module Xk = Protolat_xkernel
module Ns = Protolat_netsim
module Obs = Protolat_obs
module Opts = Protolat_tcpip.Opts

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

let ethertype_rpc = 0x0801

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

(* addressing as a pure function of the host index, mirroring
   [T.Stack.mac_of] but on the RPC harness's own MAC block *)
let mac_of i = 0x0800_2B00_0011 + i

let boot_id_of i = 0x1001 + (i * 0x1000)

let make_net ?(opts_for = fun _ -> Opts.improved) ?(meter_for = fun _ -> None)
    ~topology () =
  (* the request-reply channel stack is two-party: CHAN binds each host to
     one peer at creation.  Any 2-host topology works (pair, star:2,
     line:2 — the latter exercise the switched forwarding path). *)
  if Ns.Topology.hosts topology <> 2 then
    invalid_arg "Rstack.make_net: the RPC stack is two-party (2 hosts)";
  Protolat_tcpip.Stack.build_net ~opts_for ~meter_for ~topology ~mac_of
    (fun i ~opts (env, lance, netdev) ->
      let map_cache_inline = opts.Opts.map_cache_inline in
      let blast =
        Blast.create env netdev ~ethertype:ethertype_rpc ~map_cache_inline ()
      in
      let bid = Bid.create env blast ~boot_id:(boot_id_of i) in
      let chan =
        Chan.create env bid ~peer_mac:(mac_of (1 - i)) ~map_cache_inline ()
      in
      let vchan = Vchan.create env chan () in
      let mselect = Mselect.create env vchan in
      { env; lance; netdev; blast; bid; chan; vchan; mselect; mac = mac_of i })

let pair_of_net = Protolat_tcpip.Stack.pair_of_net

let make_tests pair ~rounds =
  let server = Xrpctest.server pair.server.env pair.server.mselect ~client_id:1 in
  let client =
    Xrpctest.client pair.client.env pair.client.mselect ~client_id:1 ~rounds
  in
  (client, server)

let figure1 () =
  Xk.Protocol.make "RPC stack"
    [ { Xk.Protocol.name = "XRPCTEST"; role = "ping-pong test program" };
      { Xk.Protocol.name = "MSELECT"; role = "client multiplexing" };
      { Xk.Protocol.name = "VCHAN"; role = "virtual channel pool" };
      { Xk.Protocol.name = "CHAN"; role = "request-reply channels" };
      { Xk.Protocol.name = "BID"; role = "boot-id validation" };
      { Xk.Protocol.name = "BLAST"; role = "fragmentation + selective rexmit" };
      { Xk.Protocol.name = "ETH"; role = "device-independent driver" };
      { Xk.Protocol.name = "LANCE"; role = "Ethernet device driver" } ]

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

let ethertype_ip = 0x0800

(* the half of a host both stacks share: environment, LANCE, ETH; both
   record under the host code [host] *)
let make_device sim link ~station ~host ~mac ~opts ?meter ?metrics
    ?simmem_base () =
  let env = Ns.Host_env.create sim ~host ?meter ?metrics ?simmem_base () in
  let lance =
    Ns.Lance.create sim env.Ns.Host_env.simmem link ~station ~host
      ~mode:(Opts.lance_mode opts) ~metrics:env.Ns.Host_env.metrics ()
  in
  let netdev =
    Ns.Netdev.create env lance ~mac
      ~config:
        { Ns.Netdev.usc = opts.Opts.usc_lance;
          map_cache_inline = opts.Opts.map_cache_inline;
          refresh_shortcircuit = opts.Opts.refresh_shortcircuit }
      ()
  in
  (env, lance, netdev)

let upper (env, lance, netdev) ~mac ~ip_addr ~opts =
  let vnet = Vnet.create env netdev ~ethertype:ethertype_ip in
  let ip =
    Ip.create env vnet ~my_ip:ip_addr
      ~map_cache_inline:opts.Opts.map_cache_inline ()
  in
  let tcp = Tcp.create env ip ~opts in
  let udp = Udp.create env ip in
  { env; lance; netdev; vnet; ip; tcp; udp; mac; ip_addr }

let make_host sim link ~station ~mac ~ip_addr ~opts ?metrics ?simmem_base () =
  upper
    (make_device sim link ~station ~host:station ~mac ~opts ?metrics
       ?simmem_base ())
    ~mac ~ip_addr ~opts

type 'h gpair = {
  sim : Ns.Sim.t;
  link : Ns.Ether.Link.t;
  client : 'h;
  server : 'h;
  metrics : Obs.Metrics.t;  (* root registry: client.*, server.*, link.* *)
}

type 'h gnet = {
  n_sim : Ns.Sim.t;
  fabric : Ns.Fabric.t;
  hosts : 'h array;
  n_metrics : Obs.Metrics.t;
}

type pair = host gpair

type net = host gnet

let addr_client = 0xC0A80001 (* 192.168.0.1 *)

(* link-layer and network addressing: host i's identity is a pure function
   of its index, so every harness (and the fabric's static forwarding
   tables) agrees without coordination.  Hosts 0 and 1 reproduce the
   historic client/server assignment exactly. *)
let mac_of i = 0x0800_2B00_0001 + i

let ip_of i = addr_client + i

let simmem_base_of i = 0x1010_0000 + (i * 0x2000_0000)

let scope_of i =
  if i = 0 then "client"
  else if i = 1 then "server"
  else Printf.sprintf "h%d" i

let build_net ~opts_for ~meter_for ~topology ~mac_of upper =
  let sim = Ns.Sim.create () in
  let metrics = Obs.Metrics.create () in
  let fabric = Ns.Fabric.create sim ~topology ~mac_of ~metrics () in
  let hosts =
    Array.init (Ns.Topology.hosts topology) (fun i ->
        let opts = opts_for i in
        let dev =
          make_device sim
            (Ns.Fabric.host_link fabric i)
            ~station:(Ns.Fabric.host_station fabric i)
            ~host:i ~mac:(mac_of i) ~opts ?meter:(meter_for i)
            ~metrics:(Obs.Metrics.scoped metrics (scope_of i))
            ~simmem_base:(simmem_base_of i) ()
        in
        upper i ~opts dev)
  in
  { n_sim = sim; fabric; hosts; n_metrics = metrics }

let make_net ?(opts_for = fun _ -> Opts.improved) ?(meter_for = fun _ -> None)
    ~topology () =
  let net =
    build_net ~opts_for ~meter_for ~topology ~mac_of (fun i ~opts dev ->
        upper dev ~mac:(mac_of i) ~ip_addr:(ip_of i) ~opts)
  in
  (* routes: host i to every peer in increasing index order, then itself —
     for hosts 0/1 exactly the historic four-call sequence *)
  let n = Array.length net.hosts in
  Array.iteri
    (fun i h ->
      for j = 0 to n - 1 do
        if j <> i then Vnet.add_route h.vnet ~ip:(ip_of j) ~mac:(mac_of j)
      done;
      Vnet.add_route h.vnet ~ip:h.ip_addr ~mac:h.mac)
    net.hosts;
  net

let pair_of_net net =
  if Array.length net.hosts <> 2 then
    invalid_arg "Stack.pair_of_net: topology must have exactly 2 hosts";
  { sim = net.n_sim;
    link = Ns.Fabric.host_link net.fabric 0;
    client = net.hosts.(0);
    server = net.hosts.(1);
    metrics = net.n_metrics }

let establish pair ~rounds =
  let server_test = Tcptest.server pair.server.env pair.server.tcp ~port:7 in
  let client_test =
    Tcptest.client pair.client.env pair.client.tcp ~local_port:1024
      ~remote_ip:pair.server.ip_addr ~remote_port:7 ~rounds
  in
  (* run the handshake *)
  ignore (Ns.Sim.run ~until:(Ns.Sim.now pair.sim +. 50_000.0) pair.sim);
  (match Tcptest.session client_test with
  | Some s when Tcp.state s = Tcb.Established -> ()
  | _ -> failwith "Stack.establish: handshake did not complete");
  (client_test, server_test)

let teardown pair =
  let ctcp = pair.client.tcp and stcp = pair.server.tcp in
  let deadline = Ns.Sim.now pair.sim +. 60.0e6 in
  let rec drain () =
    ignore (Ns.Sim.run ~until:(Ns.Sim.now pair.sim +. 2_000.0) pair.sim);
    ignore (Tcp.sweep stcp);
    (* the client needs the finwait2 reaper too: a crashed server cannot
       finish a close the client already half-completed *)
    ignore (Tcp.sweep ctcp);
    if
      (Tcp.session_count stcp > 0 || Tcp.session_count ctcp > 0)
      && Ns.Sim.now pair.sim < deadline
    then drain ()
  in
  drain ()

let figure1 () =
  Xk.Protocol.make "TCP/IP stack"
    [ { Xk.Protocol.name = "TCPTEST"; role = "ping-pong test program" };
      { Xk.Protocol.name = "TCP"; role = "BSD-derived transport" };
      { Xk.Protocol.name = "IP"; role = "Internet protocol" };
      { Xk.Protocol.name = "VNET"; role = "virtual routing protocol" };
      { Xk.Protocol.name = "ETH"; role = "device-independent driver" };
      { Xk.Protocol.name = "LANCE"; role = "Ethernet device driver" } ]

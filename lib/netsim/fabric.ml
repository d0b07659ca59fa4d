(* Materialize a [Topology.t] into links and switches on one simulator.

   The pair shape reproduces the historic two-host wiring bit for bit: one
   link whose metrics live under the ["link"] scope, host 0 at station 0,
   host 1 at station 1, and no switch.  Switched shapes give every host its
   own access segment (["link<i>"] scopes, host at station 0, switch at
   station 1) and install static forwarding entries for the harness's MAC
   assignment; learning topologies skip the static table and let the
   switches flood.  Host i's code is i; switch-facing stations and trunks
   carry [Span.host_wire], so a multi-hop path telescopes into
   wire/switch/wire span segments.

   Hosts are not created here — the stack harnesses attach their LANCEs to
   [host_link]/[host_station] — so the fabric stays protocol-agnostic. *)

module Obs = Protolat_obs

type t = {
  topo : Topology.t;
  links : Ether.Link.t array;  (* host i's access segment *)
  stations : int array;  (* host i's station on its access segment *)
  switches : Switch.t array;  (* empty for the pair shape *)
  trunks : Ether.Link.t array;  (* line shape: inter-switch segments *)
  host_port : (int * int) array;  (* host i -> (switch, port); (-1,-1) pair *)
}

(* line-switch port convention: 0 = host, 1 = toward higher indices,
   2 = toward lower indices *)
let port_host = 0

let port_right = 1

let port_left = 2

(* host side carries the host's code; the switch side carries [host_wire],
   so a hop re-enters the wire stage from the switch stage (see
   Span.mark_wire) *)
let access_link sim ~prop ~metrics i =
  let link =
    Ether.Link.create sim ~propagation_us:prop
      ~metrics:(Obs.Metrics.scoped metrics (Printf.sprintf "link%d" i))
      ()
  in
  Ether.Link.set_span_hosts link ~station0:i ~station1:Obs.Span.host_wire;
  link

let create sim ~topology ?(mac_of = fun i -> i) ?metrics () =
  let topo = Topology.validate topology in
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let n = topo.Topology.hosts in
  let prop = topo.Topology.propagation_us in
  match topo.Topology.shape with
  | Topology.Pair ->
    let link =
      Ether.Link.create sim ~propagation_us:prop
        ~metrics:(Obs.Metrics.scoped metrics "link") ()
    in
    { topo;
      links = [| link; link |];
      stations = [| 0; 1 |];
      switches = [||];
      trunks = [||];
      host_port = [| (-1, -1); (-1, -1) |] }
  | Topology.Star ->
    let sw =
      Switch.create sim ~ports:n ~latency_us:topo.Topology.switch_latency_us
        ~queue_frames:topo.Topology.port_queue_frames
        ~learning:topo.Topology.learning ~metrics ()
    in
    let links = Array.init n (access_link sim ~prop ~metrics) in
    Array.iteri
      (fun i link ->
        Switch.attach sw ~port:i ~station:1 link;
        if not topo.Topology.learning then
          Switch.add_static sw ~mac:(mac_of i) ~port:i)
      links;
    { topo;
      links;
      stations = Array.make n 0;
      switches = [| sw |];
      trunks = [||];
      host_port = Array.init n (fun i -> (0, i)) }
  | Topology.Line ->
    let switches =
      Array.init n (fun i ->
          Switch.create sim ~ports:3
            ~latency_us:topo.Topology.switch_latency_us
            ~queue_frames:topo.Topology.port_queue_frames
            ~learning:topo.Topology.learning
            ~metrics:(Obs.Metrics.scoped metrics (Printf.sprintf "sw%d" i))
            ())
    in
    let links = Array.init n (access_link sim ~prop ~metrics) in
    Array.iteri
      (fun i link -> Switch.attach switches.(i) ~port:port_host ~station:1 link)
      links;
    let trunks =
      Array.init (n - 1) (fun i ->
          let trunk =
            Ether.Link.create sim ~propagation_us:prop
              ~metrics:
                (Obs.Metrics.scoped metrics (Printf.sprintf "trunk%d" i))
              ()
          in
          Ether.Link.set_span_hosts trunk ~station0:Obs.Span.host_wire
            ~station1:Obs.Span.host_wire;
          Switch.attach switches.(i) ~port:port_right ~station:0 trunk;
          Switch.attach switches.(i + 1) ~port:port_left ~station:1 trunk;
          trunk)
    in
    if not topo.Topology.learning then
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let port =
            if j = i then port_host else if j > i then port_right else port_left
          in
          Switch.add_static switches.(i) ~mac:(mac_of j) ~port
        done
      done;
    { topo;
      links;
      stations = Array.make n 0;
      switches;
      trunks;
      host_port = Array.init n (fun i -> (i, port_host)) }

let topology t = t.topo

let hosts t = t.topo.Topology.hosts

let host_link t i = t.links.(i)

let host_station t i = t.stations.(i)

let switches t = t.switches

let is_pair t = Topology.is_pair t.topo

let pair_link t =
  if not (is_pair t) then invalid_arg "Fabric.pair_link: not a pair topology";
  t.links.(0)

let iter_links t f =
  if is_pair t then f t.links.(0)
  else begin
    Array.iter f t.links;
    Array.iter f t.trunks
  end

let partition_host t ~host on =
  if is_pair t then
    (* the segment is shared: partitioning either host severs the wire,
       exactly the historic chaos behavior *)
    Ether.Link.set_filter t.links.(0) (fun _ -> on)
  else begin
    let sw, port = t.host_port.(host) in
    Switch.set_partition t.switches.(sw) ~port on
  end

let partition_all t on =
  if is_pair t then Ether.Link.set_filter t.links.(0) (fun _ -> on)
  else
    Array.iteri
      (fun host (sw, port) ->
        ignore host;
        Switch.set_partition t.switches.(sw) ~port on)
      t.host_port

let host_port t ~host = t.host_port.(host)

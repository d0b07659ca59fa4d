(** Materialize a {!Topology.t} into links and switches on one simulator.

    The pair shape reproduces the historic two-host wiring bit for bit (one
    ["link"]-scoped segment, host 0 at station 0, host 1 at station 1, no
    switch).  Switched shapes give every host an access segment
    (["link<i>"] scopes, host at station 0, switch at station 1), chain
    switches over ["trunk<i>"] segments for the line shape, and install
    static forwarding entries for the harness's MAC assignment unless the
    topology asks for learning.

    Each segment's stations carry span host codes from the topology: the
    pair's stations are hosts 0 and 1; an access segment carries its
    host's index on the host side and {!Protolat_obs.Span.host_wire} on
    the switch side, and trunks carry [host_wire] on both, so multi-hop
    paths telescope into wire/switch/wire segments.  Links and switches
    record into the simulator's recorders ({!Sim.record}).

    Hosts are not created here: stack harnesses attach their LANCEs to
    {!host_link}/{!host_station}, keeping the fabric protocol-agnostic. *)

type t

val create :
  Sim.t ->
  topology:Topology.t ->
  ?mac_of:(int -> int) ->
  ?metrics:Protolat_obs.Metrics.t ->
  unit ->
  t
(** [mac_of i] is host [i]'s link-layer address, used to populate static
    forwarding tables (ignored under learning).  Defaults to the host
    index. *)

val topology : t -> Topology.t

val hosts : t -> int

val host_link : t -> int -> Ether.Link.t

val host_station : t -> int -> int

val switches : t -> Switch.t array

val is_pair : t -> bool

val pair_link : t -> Ether.Link.t
(** The single shared segment of a pair fabric.
    @raise Invalid_argument on switched shapes. *)

val iter_links : t -> (Ether.Link.t -> unit) -> unit
(** Every distinct segment: access links, then trunks (the pair's shared
    segment once). *)

val partition_host : t -> host:int -> bool -> unit
(** Partition one host at its switch port.  On the pair shape the segment
    is shared, so this severs the wire for both hosts — the historic chaos
    behavior (a link-level drop filter). *)

val partition_all : t -> bool -> unit
(** Partition every host port (pair: sever the wire). *)

val host_port : t -> host:int -> int * int
(** [(switch index, port)] of a host on a switched shape; [(-1, -1)] on
    the pair. *)

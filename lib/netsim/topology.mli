(** Topology descriptions for the simulated fabric.

    A topology is a pure value: it names a wiring shape and its parameters
    but owns no simulator state.  {!Fabric.create} materializes one into
    links and switches; the run harnesses carry one instead of assuming the
    historic two-host point-to-point wiring. *)

type shape =
  | Pair  (** two hosts on one point-to-point segment — the paper's wiring *)
  | Star  (** every host on its own segment into one switch *)
  | Line  (** a chain of switches, one host each; traffic crosses hops *)

type t = private {
  shape : shape;
  hosts : int;
  propagation_us : float;  (** per-segment propagation delay *)
  learning : bool;
      (** learn the forwarding table from source addresses (flooding
          unknown destinations) instead of the static table the fabric
          installs *)
}

val pair : ?propagation_us:float -> unit -> t
(** The paper's wiring: two hosts on one segment, no switch.  Runs over it
    are bit-identical to the historic pre-topology construction. *)

val star : ?propagation_us:float -> ?learning:bool -> hosts:int -> unit -> t
(** [hosts] stations, each on its own segment into one switch — the incast
    / fan-in shape. *)

val line : ?propagation_us:float -> ?learning:bool -> hosts:int -> unit -> t
(** A chain of [hosts] switches, one host each; traffic between hosts [i]
    and [j] crosses [abs (i - j)] trunk hops. *)

val default_propagation_us : float

val default_switch_latency_us : float
(** Store-and-forward decision latency of every fabric switch hop. *)

val default_port_queue_frames : int
(** Egress queue capacity of every fabric switch port. *)

val hosts : t -> int

val switches : t -> int

val is_pair : t -> bool

val shape_name : shape -> string

val shape_of_string : string -> shape option

val to_string : t -> string
(** ["pair"], ["star:N"] or ["line:N"] — the JSON stamp and CLI syntax. *)

val of_string : string -> t option
(** Parses {!to_string} output plus bare shape names (["star"] means
    [star:2]); [None] on malformed input or out-of-range host counts. *)

val equal : t -> t -> bool

val validate : t -> t
(** @raise Invalid_argument when parameters are out of range. *)

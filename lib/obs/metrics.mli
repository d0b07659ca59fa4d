(** Unified metrics registry: typed counters, gauges and histograms under
    stable dotted names.

    One registry is created per simulated host pair and threaded through
    the stack via {!scoped} views, replacing the ad-hoc [mutable ... : int]
    accumulators that used to be scattered across the device and protocol
    modules.  All reads and dumps are deterministic: the dump is sorted by
    name, histograms have fixed bucket bounds, and nothing in the registry
    depends on wall-clock time or hashing order.

    Registries are not synchronized: each simulation (each domain of a
    parallel sweep) owns its own registry, matching how the rest of the
    simulator shares nothing across domains. *)

type t

type counter

type gauge

type histogram

val create : unit -> t
(** A fresh root registry. *)

val scoped : t -> string -> t
(** [scoped t prefix] is a view onto the same registry that prepends
    ["prefix."] to every metric name registered through it.  Scopes nest. *)

val prefix : t -> string
(** The accumulated name prefix of this view (["" ] for a root). *)

val counter : t -> ?help:string -> string -> counter
(** Find-or-create a monotonic counter.
    @raise Invalid_argument if the name is already registered as a
    different metric type. *)

val inc : counter -> unit

val add : counter -> int -> unit

val value : counter -> int

val gauge : t -> ?help:string -> string -> gauge

val set : gauge -> float -> unit

val gauge_value : gauge -> float

val histogram : t -> ?help:string -> ?bounds:float array -> string -> histogram
(** Find-or-create a histogram with fixed bucket upper bounds (default:
    decade-ish latency buckets in µs).  Bounds passed after creation are
    ignored: the first registration wins. *)

val observe : histogram -> float -> unit

val histogram_count : histogram -> int

val histogram_sum : histogram -> float

(** A point-in-time snapshot of one metric. *)
type sample =
  | Counter of int
  | Gauge of float
  | Histogram of {
      bounds : float array;
      counts : int array;  (** one per bound, plus a final +inf bucket *)
      count : int;
      sum : float;
    }

val dump : t -> (string * sample) list
(** Every metric of the {e root} registry (regardless of which scope this
    view is), sorted by full name. *)

val find : t -> string -> sample option
(** Look up one metric by full (unscoped) name. *)

val render : t -> string
(** Human-readable dump, one metric per line, sorted by name. *)

val json : t -> Json.Out.t
(** Deterministic JSON document: [{"schema_version":...,"counters":{...},
    "gauges":{...},"histograms":{...}}] with keys sorted by name. *)

val to_json : t -> string
(** {!json}, printed compact. *)

(** The six measured configurations of §4.2. *)

type version =
  | Std  (** §2.2 improvements only; uncontrolled (link-order) layout *)
  | Out  (** STD + outlining *)
  | Clo  (** OUT + cloning with the bipartite layout *)
  | Bad  (** CLO but cloned to a pessimal layout *)
  | Pin  (** OUT + path-inlining *)
  | All  (** PIN + cloning (bipartite): every technique *)

val all_versions : version list

val version_name : version -> string

val of_name : string -> version option

val outlined : version -> bool

type layout =
  | Link_order
  | Bipartite
  | Pessimal
  | Micro  (** the micro-positioning strategy of §3.2 (extra experiment) *)
  | Linear
      (** strict first-invocation order with no path/library partition —
          the layout §3.2 recommends when the whole path fits in the
          i-cache *)

val layout_of : version -> layout

val all_layouts : layout list
(** Every placement strategy, in the order the layout sweeps, the spans
    report and the layout search list them. *)

val layout_name : layout -> string

val path_inlined : version -> bool

val cloned : version -> bool
(** Whether clone specialization (prologue skip, PC-relative calls) is
    applied. *)

type t = {
  version : version;
  opts : Protolat_tcpip.Opts.t;
}

val make : ?opts:Protolat_tcpip.Opts.t -> version -> t

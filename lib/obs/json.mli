(** The repo's one JSON reader and writer.

    The repo depends on no JSON library.  The reader is a strict
    recursive-descent parser over the full JSON grammar (objects, arrays,
    strings with escapes, numbers, booleans, null) that rejects trailing
    garbage; tests and CI use it to validate the exports.  The writer,
    {!Out}, renders every export of the repo: each exporter builds a
    document value and prints it in one of two fixed layouts, so the
    braces, separators, escaping and number formats live here and
    nowhere else. *)

val schema_version : int
(** Version {!Out.document} stamps as a top-level ["schema_version"] field
    into every JSON export of the repo (metrics dump, profile, Perfetto
    trace, spans, mflow and incast reports, chaos matrix and repro files,
    layout search).  Bump when any export changes shape.  Version 2 added
    the mflow reconnects/drained/violations cell fields and the chaos
    exports; version 3 added the latency-provenance spans export, Perfetto
    span tracks with flow events, and the mflow [p999_us] cell field;
    version 4 added the switched fabric: a top-level ["topology"] stamp in
    the mflow/chaos/spans/profile/bench/incast exports, the chaos repro
    ["topology"] field, the ["switch"] span stage, and the incast
    export. *)

val escape : string -> string
(** The body of a JSON string literal holding [s]: ['"'] and ['\\']
    backslash-escaped, newline as [\n], every other byte below 0x20 as
    [\u00XX], all other bytes as they are.  [parse ("\"" ^ escape s ^ "\"")]
    is [Ok (Str s)]. *)

type v =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of v list
  | Obj of (string * v) list

val parse : string -> (v, string) result
(** [Error msg] carries the byte offset and reason of the first failure. *)

val member : string -> v -> v option
(** Object field lookup ([None] for absent field or non-object). *)

val array_length : v -> int
(** Length of an [Arr]; 0 otherwise. *)

(** The writer.  A submodule, so that its constructors do not shadow the
    reader's {!v}. *)
module Out : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Fixed of int * float  (** [Fixed (d, x)] prints [x] as [%.<d>f] *)
    | Real of float  (** {!real} *)
    | Str of string  (** escaped with {!escape} *)
    | Arr of t list  (** inline: [[a,b]] *)
    | Rows of t list
        (** one element per line, each indented one level deeper than the
            array; an empty [Rows] still prints its two line breaks *)
    | Obj of (string * t) list  (** inline; keys escaped with {!escape} *)

  type layout =
    | Compact  (** no whitespace except inside {!Rows} *)
    | Report
        (** a top-level object prints one field per line, indented two
            spaces, and ends with a newline; nested values are inline with
            [", "] and [": "] separators *)

  val real : float -> string
  (** An integral value below 1e15 as [%.0f], anything else as [%.6f]. *)

  val document : ?kind:string -> (string * t) list -> t
  (** The object of [fields], led by ["schema_version"] and, when given,
      ["kind"]. *)

  val to_string : layout -> t -> string
end

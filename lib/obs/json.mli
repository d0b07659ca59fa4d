(** Minimal JSON parser.

    The container has no JSON library baked in, and the observability layer
    only needs enough JSON to {e validate its own output} (the Perfetto
    export and the metrics/profile dumps) in tests and CI.  This is a
    strict recursive-descent parser over the full JSON grammar — objects,
    arrays, strings with escapes, numbers, booleans, null — that rejects
    trailing garbage. *)

val schema_version : int
(** Version stamped as a top-level ["schema_version"] field into every JSON
    export of the repo (metrics dump, profile dump, Perfetto metadata,
    bench snapshot, mflow report, chaos matrix and repro files).  Bump when
    any export changes shape.  Version 2 added the mflow
    reconnects/drained/violations cell fields and the chaos exports;
    version 3 added the latency-provenance spans export, Perfetto span
    tracks with flow events, and the mflow [p999_us] cell field;
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

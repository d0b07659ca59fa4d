type version =
  | Std
  | Out
  | Clo
  | Bad
  | Pin
  | All

let all_versions = [ Bad; Std; Out; Clo; Pin; All ]

let version_name = function
  | Std -> "STD"
  | Out -> "OUT"
  | Clo -> "CLO"
  | Bad -> "BAD"
  | Pin -> "PIN"
  | All -> "ALL"

let of_name s =
  match String.uppercase_ascii s with
  | "STD" -> Some Std
  | "OUT" -> Some Out
  | "CLO" -> Some Clo
  | "BAD" -> Some Bad
  | "PIN" -> Some Pin
  | "ALL" -> Some All
  | _ -> None

let outlined = function
  | Std -> false
  | Out | Clo | Bad | Pin | All -> true

type layout =
  | Link_order
  | Bipartite
  | Pessimal
  | Micro
  | Linear

let layout_of = function
  | Std | Out | Pin -> Link_order
  | Clo | All -> Bipartite
  | Bad -> Pessimal

let all_layouts = [ Bipartite; Micro; Linear; Link_order; Pessimal ]

let layout_name = function
  | Link_order -> "link-order"
  | Bipartite -> "bipartite"
  | Pessimal -> "pessimal"
  | Micro -> "micro-positioning"
  | Linear -> "linear"

let path_inlined = function
  | Pin | All -> true
  | Std | Out | Clo | Bad -> false

let cloned = function
  | Clo | Bad | All -> true
  | Std | Out | Pin -> false

type t = {
  version : version;
  opts : Protolat_tcpip.Opts.t;
}

let make ?(opts = Protolat_tcpip.Opts.improved) version = { version; opts }

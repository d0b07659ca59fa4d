(* Topology descriptions for the simulated fabric.

   A topology is a pure value: it names a wiring shape and its parameters
   but owns no simulator state.  [Fabric.create] turns one into links and
   switches; the run harnesses ([Engine.Spec], [Mflow], [Soak], [Chaos],
   [Incast]) carry one instead of assuming the historic two-host link. *)

type shape =
  | Pair  (** two hosts on one point-to-point segment — the paper's wiring *)
  | Star  (** every host on its own segment into one switch *)
  | Line  (** a chain of switches, one host each; traffic crosses hops *)

type t = {
  shape : shape;
  hosts : int;
  propagation_us : float;
  learning : bool;
}

let default_propagation_us = 0.3

let default_switch_latency_us = 5.0

let default_port_queue_frames = 32

let validate t =
  (match t.shape with
  | Pair ->
    if t.hosts <> 2 then invalid_arg "Topology: pair must have exactly 2 hosts"
  | Star ->
    if t.hosts < 2 then invalid_arg "Topology: star needs at least 2 hosts"
  | Line ->
    if t.hosts < 2 then invalid_arg "Topology: line needs at least 2 hosts");
  if t.hosts > 4096 then invalid_arg "Topology: at most 4096 hosts";
  if not (Float.is_finite t.propagation_us) || t.propagation_us < 0.0 then
    invalid_arg "Topology: propagation must be finite and non-negative";
  t

let pair ?(propagation_us = default_propagation_us) () =
  validate { shape = Pair; hosts = 2; propagation_us; learning = false }

let star ?(propagation_us = default_propagation_us) ?(learning = false) ~hosts
    () =
  validate { shape = Star; hosts; propagation_us; learning }

let line ?(propagation_us = default_propagation_us) ?(learning = false) ~hosts
    () =
  validate { shape = Line; hosts; propagation_us; learning }

let hosts t = t.hosts

let switches t =
  match t.shape with Pair -> 0 | Star -> 1 | Line -> t.hosts

let is_pair t = t.shape = Pair

let shape_name = function Pair -> "pair" | Star -> "star" | Line -> "line"

let shape_of_string = function
  | "pair" -> Some Pair
  | "star" -> Some Star
  | "line" -> Some Line
  | _ -> None

let to_string t =
  match t.shape with
  | Pair -> "pair"
  | s -> Printf.sprintf "%s:%d" (shape_name s) t.hosts

let of_string s =
  let mk shape hosts =
    match shape with
    | Pair -> if hosts = 2 then Some (pair ()) else None
    | Star -> if hosts >= 2 then Some (star ~hosts ()) else None
    | Line -> if hosts >= 2 then Some (line ~hosts ()) else None
  in
  match String.index_opt s ':' with
  | None -> Option.bind (shape_of_string s) (fun sh -> mk sh 2)
  | Some i ->
    let name = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    Option.bind (shape_of_string name) (fun sh ->
        Option.bind (int_of_string_opt rest) (fun hosts ->
            if hosts >= 2 && hosts <= 4096 then mk sh hosts else None))

let equal a b = a = b

(* Shared Cmdliner converters and arguments for every protolat subcommand,
   so the common flags (-s/-c, --seed/--seeds, -j/--jobs, --json, --check,
   -o) spell and behave identically across the whole CLI. *)

module P = Protolat
open Cmdliner

let version_conv =
  let parse s =
    match P.Config.of_name s with
    | Some v -> Ok v
    | None ->
      Error (`Msg ("unknown version: " ^ s ^ " (BAD/STD/OUT/CLO/PIN/ALL)"))
  in
  let print fmt v = Format.pp_print_string fmt (P.Config.version_name v) in
  Arg.conv (parse, print)

let stack_conv =
  let parse = function
    | "tcp" | "tcpip" | "tcp/ip" -> Ok P.Engine.Tcpip
    | "rpc" -> Ok P.Engine.Rpc
    | s -> Error (`Msg ("unknown stack: " ^ s ^ " (tcpip|rpc)"))
  in
  let print fmt s = Format.pp_print_string fmt (P.Engine.stack_name s) in
  Arg.conv (parse, print)

let stack_arg =
  Arg.(
    value
    & opt stack_conv P.Engine.Tcpip
    & info [ "s"; "stack" ] ~doc:"Stack: tcpip or rpc.")

let version_arg =
  Arg.(
    value
    & opt version_conv P.Config.Std
    & info [ "c"; "config" ]
        ~doc:"Configuration: BAD, STD, OUT, CLO, PIN or ALL.")

let rounds_arg =
  Arg.(value & opt int 24 & info [ "r"; "rounds" ] ~doc:"Measured roundtrips.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")

let jobs_arg =
  Arg.(
    value
    & opt int (Protolat_util.Dpool.default_jobs ())
    & info [ "j"; "jobs" ]
        ~doc:
          "Worker domains for sweeps (default: the recommended domain \
           count; 1 = sequential). Results are identical at any job count.")

let topo_conv =
  let parse s =
    match Protolat_netsim.Topology.shape_of_string s with
    | Some sh -> Ok sh
    | None -> Error (`Msg ("unknown topology: " ^ s ^ " (pair|star|line)"))
  in
  let print fmt sh =
    Format.pp_print_string fmt (Protolat_netsim.Topology.shape_name sh)
  in
  Arg.conv (parse, print)

let topo_arg =
  Arg.(
    value
    & opt topo_conv Protolat_netsim.Topology.Pair
    & info [ "topo" ]
        ~doc:
          "Fabric shape: pair (point-to-point, the paper's wiring), star \
           (every host on its own segment into one switch) or line (a \
           chain of switches).")

let hosts_arg =
  Arg.(
    value & opt int 2
    & info [ "hosts" ]
        ~doc:
          "Hosts on the fabric.  Two-host harnesses (run, mflow, soak, \
           chaos) require 2; the fabric scenario takes any fan-in + 1.")

(* Materialize --topo/--hosts into a topology value, with the CLI's error
   discipline (exit 124 like Cmdliner's own converter failures). *)
let topology_of shape hosts =
  let module Topo = Protolat_netsim.Topology in
  match
    match shape with
    | Topo.Pair -> if hosts = 2 then Some (Topo.pair ()) else None
    | Topo.Star -> (try Some (Topo.star ~hosts ()) with _ -> None)
    | Topo.Line -> (try Some (Topo.line ~hosts ()) with _ -> None)
  with
  | Some t -> t
  | None ->
    Printf.eprintf "protolat: --topo %s --hosts %d is not a valid fabric\n"
      (Topo.shape_name shape) hosts;
    exit 124

(* The two-host harnesses (run, mflow, soak, chaos) accept any shape but
   exactly two hosts; fail cleanly before the engine's invalid_arg. *)
let pair_topology_of shape hosts =
  if hosts <> 2 then begin
    Printf.eprintf
      "protolat: this subcommand runs on exactly 2 hosts (got --hosts %d); \
       use `protolat fabric` for N-host scenarios\n"
      hosts;
    exit 124
  end;
  topology_of shape hosts

let seeds_arg ?(default = 1) ~doc () =
  Arg.(value & opt int default & info [ "seeds" ] ~doc)

let json_arg ?(doc = "Emit the JSON document instead of text.") () =
  Arg.(value & flag & info [ "json" ] ~doc)

let check_arg ~doc () = Arg.(value & flag & info [ "check" ] ~doc)

let out_arg ?(doc = "Write the output to a file.") () =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)

(* Write [data] to the -o target, or stdout when none was given. *)
let write out data =
  match out with
  | Some path ->
    let oc = open_out path in
    output_string oc data;
    close_out oc;
    Printf.printf "wrote %d bytes to %s\n" (String.length data) path
  | None -> print_string data

(* The --check of a JSON report: it parses, carries the current
   schema_version and holds [cells] entries under "cells".  Otherwise name
   the fault on stderr and exit 1. *)
let check_report name json ~cells =
  let module J = Protolat_obs.Json in
  let fail msg =
    Printf.eprintf "%s JSON%s\n" name msg;
    exit 1
  in
  match J.parse json with
  | Error msg -> fail (" is malformed: " ^ msg)
  | Ok v -> (
    (match J.member "schema_version" v with
    | Some (J.Num got) when int_of_float got = J.schema_version -> ()
    | _ -> fail ": bad schema_version");
    match J.member "cells" v with
    | Some cs when J.array_length cs = cells -> ()
    | _ -> fail ": wrong cell count")

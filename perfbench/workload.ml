(* The four workloads: how each one's inputs derive from the seed, how one
   input runs, what counts as its work, and the checks its output must
   pass. *)

module P = Protolat
module Hist = Protolat_util.Stats.Hist

type t =
  | Paper_sweep
  | Layout_search
  | Fabric_incast
  | Mflow_churn

let all = [ Paper_sweep; Layout_search; Fabric_incast; Mflow_churn ]

let name = function
  | Paper_sweep -> "paper_sweep"
  | Layout_search -> "layout_search"
  | Fabric_incast -> "fabric_incast"
  | Mflow_churn -> "mflow_churn"

let of_name s = List.find_opt (fun w -> name w = s) all

let work_unit = function
  | Paper_sweep -> "measured roundtrips"
  | Layout_search -> "candidate evaluations"
  | Fabric_incast -> "completed exchanges"
  | Mflow_churn -> "completed requests"

let default_seed = 42

(* Run length the input counts below are sized for: [Run.passes] passes
   over [nominal_inputs] take about this long on a 2-vCPU x86-64 VM.
   Other [--seconds] values scale the input count, so inputs stay a pure
   function of (seed, seconds). *)
let nominal_seconds = 15

let nominal_inputs = function
  | Paper_sweep -> 168
  | Layout_search -> 3
  | Fabric_incast -> 36
  | Mflow_churn -> 32

let search_cells = 2 * List.length P.Layoutsearch.geometries

let inputs_for ~seconds w =
  let n =
    max 2 (((nominal_inputs w * seconds) + (nominal_seconds / 2)) / nominal_seconds)
  in
  match w with Layout_search -> min search_cells n | _ -> n

(* ----- inputs ---------------------------------------------------------------- *)

type input =
  | Engine_run of P.Engine.Spec.t
  | Search of P.Engine.stack_kind * int  (** stack, i-cache KB *)
  | Incast of int  (** cell seed *)
  | Mflow of P.Engine.Spec.t

(* the 12 stack x version cells of Tables 4-9 *)
let paper_cells =
  Array.of_list
    (List.concat_map
       (fun s -> List.map (fun v -> (s, v)) P.Paper.version_order)
       [ P.Engine.Tcpip; P.Engine.Rpc ])

let search_budget = 160

let incast_fan_in = 16

(* what [protolat incast] users get on this machine *)
let incast_jobs () = Protolat_util.Dpool.default_jobs ()

let mflow_flows = 64

let mflow_config = P.Config.make P.Config.All

(* Input [k] of a run.  paper_sweep cycles the 12 cells so any prefix
   covers them evenly, with one engine seed per cycle: seed 0 reproduces
   the paper's own [Engine.sample_seed] sequence.  layout_search is
   unseeded ([Layoutsearch.run] takes no seed): its inputs are the 8
   stack x geometry cells, alternating stacks. *)
let input w ~seed k =
  match w with
  | Paper_sweep ->
    let stack, v = paper_cells.(k mod Array.length paper_cells) in
    Engine_run
      (P.Engine.Spec.make
         ~seed:(P.Engine.sample_seed ((seed * 100_000) + (k / Array.length paper_cells)))
         ~stack ~config:(P.Config.make v) ())
  | Layout_search ->
    Search
      ( (if k mod 2 = 0 then P.Engine.Tcpip else P.Engine.Rpc),
        List.nth P.Layoutsearch.geometries (k / 2 mod List.length P.Layoutsearch.geometries) )
  | Fabric_incast -> Incast (P.Incast.seed_for seed k)
  | Mflow_churn ->
    Mflow
      (P.Engine.Spec.make ~seed:(P.Mflow.seed_for seed k) ~stack:P.Engine.Tcpip
         ~config:mflow_config ())

let inputs w ~seed ~n = Array.init n (input w ~seed)

(* One-off work a user pays once per process, done before the first timed
   input so it lands in setup_s rather than in whichever input meets it
   first: paper_sweep builds every cell's client code image, and one short
   RPC run builds the RPC server image (reachable only through a run). *)
let setup = function
  | Paper_sweep ->
    Array.iter
      (fun (stack, v) -> ignore (P.Engine.layout_for (P.Config.make v) stack ()))
      paper_cells;
    ignore
      (P.Engine.run
         (P.Engine.Spec.make ~rounds:1 ~warmup:1 ~stack:P.Engine.Rpc
            ~config:(P.Config.make P.Config.All) ()))
  | Layout_search | Fabric_incast | Mflow_churn -> ()

(* ----- one input ------------------------------------------------------------- *)

type result =
  | Engine_result of P.Engine.run_result
  | Search_result of P.Layoutsearch.t
  | Incast_result of P.Incast.cell
  | Mflow_result of P.Mflow.cell

let execute = function
  | Engine_run spec -> Engine_result (P.Engine.run spec)
  | Search (stack, kb) ->
    Search_result
      (P.Layoutsearch.run ~budget:search_budget ~seeds:1 ~geometries:[ kb ]
         ~stacks:[ stack ] ~jobs:1 ())
  | Incast seed ->
    Incast_result
      (P.Incast.run_cell ~jobs:(incast_jobs ()) ~fan_in:incast_fan_in ~seed ())
  | Mflow spec -> Mflow_result (P.Mflow.run_cell ~flows:mflow_flows spec)

let work = function
  | Engine_result r -> List.length r.P.Engine.rtts
  | Search_result t ->
    List.fold_left (fun a c -> a + c.P.Layoutsearch.evals) 0 t.P.Layoutsearch.cells
  | Incast_result c -> c.P.Incast.completed
  | Mflow_result c -> c.P.Mflow.requests

let md5 s = Digest.to_hex (Digest.string s)

let hist_key (d : Hist.digest) =
  Printf.sprintf "%h,%h,%h,%h,%h,%h,%d" d.Hist.p50 d.Hist.p90 d.Hist.p99
    d.Hist.p999 d.Hist.p9999 d.Hist.max d.Hist.n

(* Output identity of one input: what a simulator speed-up must leave
   bit-identical. *)
let digest = function
  | Engine_result r ->
    md5 (String.concat "," (List.map (Printf.sprintf "%h") r.P.Engine.rtts))
  | Search_result t -> P.Layoutsearch.digest t
  | Incast_result c -> c.P.Incast.digest
  | Mflow_result c ->
    md5
      (String.concat ";"
         (hist_key c.P.Mflow.lat
         :: Array.to_list (Array.map hist_key c.P.Mflow.per_flow)))

(* Digests that the repo's older bench recorded for these exact calls,
   in the newest committed BENCH_*.json snapshot: an oracle that does not
   come from this benchmark. *)
let anchors =
  [ (Incast (P.Incast.seed_for 42 0), "dfaffd22b1902e134270844ab8f35ed1");
    (Search (P.Engine.Tcpip, 8), "68c96852a4a921b09d5942ef62ccefcc") ]

let anchor_of input =
  List.find_map
    (fun (i, d) ->
      match (i, input) with
      | Incast a, Incast b when a = b -> Some d
      | Search (s, k), Search (s', k') when s = s' && k = k' -> Some d
      | _ -> None)
    anchors

(* Every check an input's output must pass on every seed. *)
let failures input result =
  let fail cond msg = if cond then [ msg ] else [] in
  let own =
    match (input, result) with
    | Engine_run spec, Engine_result r ->
      let rtts = r.P.Engine.rtts in
      fail
        (List.length rtts <> spec.P.Engine.Spec.rounds)
        (Printf.sprintf "%d of %d roundtrips measured" (List.length rtts)
           spec.P.Engine.Spec.rounds)
      @ fail
          (List.exists (fun x -> not (Float.is_finite x && x > 0.0)) rtts)
          "non-positive roundtrip time"
      @ List.map (( ^ ) "invariant: ") r.P.Engine.invariants
    | Search _, Search_result t ->
      fail
        (List.exists
           (fun c -> c.P.Layoutsearch.evals < 1 || c.P.Layoutsearch.evals > search_budget)
           t.P.Layoutsearch.cells
        || List.length t.P.Layoutsearch.cells <> 1)
        "evaluation count out of budget"
    | Incast _, Incast_result c ->
      fail (c.P.Incast.completed <> c.P.Incast.total)
        (Printf.sprintf "%d of %d exchanges" c.P.Incast.completed c.P.Incast.total)
      @ fail (not c.P.Incast.drained) "not drained"
      @ List.map (( ^ ) "invariant: ") c.P.Incast.violations
    | Mflow _, Mflow_result c ->
      let want = mflow_flows * P.Mflow.default_workload.P.Mflow.requests_per_flow in
      fail (c.P.Mflow.requests <> want)
        (Printf.sprintf "%d of %d requests" c.P.Mflow.requests want)
      @ fail (not c.P.Mflow.drained) "not drained"
      @ List.map (( ^ ) "invariant: ") c.P.Mflow.violations
    | _ -> [ "result does not match input" ]
  in
  own
  @
  match anchor_of input with
  | Some d when d <> digest result -> [ "digest differs from the committed bench snapshot (" ^ d ^ ")" ]
  | _ -> []

(* The expensive check, run once per run after the timing: layout
   search's full-path re-simulation of each best genome.  It builds and
   caches code images, so running it between timed inputs would make the
   first pass differ from the others. *)
let full_check = function
  | Search_result t ->
    Some
      (fun () ->
        match P.Layoutsearch.check t with Ok () -> [] | Error e -> [ "check: " ^ e ])
  | Engine_result _ | Incast_result _ | Mflow_result _ -> None

(* Workload digests at the default seed, for the nominal input count and
   for the 2-input smoke run.  A change that alters any simulated result
   fails these. *)
let pinned =
  [ (Paper_sweep, 168, "64eacc4beaf7641cad87b25d8a9aabe7");
    (Layout_search, 3, "ac6d978f7e56fdff78a468f4853920dd");
    (Fabric_incast, 36, "2bc2918525ed3812fc432e1b0b9eb39a");
    (Mflow_churn, 32, "df4a2e63c7604f26576513a022d84b73");
    (Paper_sweep, 2, "52b39a6d27261145d022e2c067a04e30");
    (Layout_search, 2, "7a43f18e52d66d19f38ba09185781693");
    (Fabric_incast, 2, "35865dbe9ff173e04823a82539a841fb");
    (Mflow_churn, 2, "ccc184be5f6a793607fe06ec51f301b7") ]

let pinned_digest w ~seed ~n =
  if seed <> default_seed then None
  else List.find_map (fun (w', n', d) -> if w = w' && n = n' then Some d else None) pinned

let workload_digest per_input = md5 (String.concat "" (Array.to_list per_input))

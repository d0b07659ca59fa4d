(* Latency provenance: the span ledger's conservation law (per-message
   stage durations fold bit-exactly to the measured RTT), multi-generation
   recording under loss, and the guarantee that recording spans cannot
   perturb the simulation. *)

module P = Protolat
module Obs = Protolat_obs
module Ns = Protolat_netsim

let run ?fault ?spans ?(rounds = 12) ~stack ~version ?layout ~seed () =
  P.Engine.run
    (P.Engine.Spec.make ~seed ~rounds ~stack ?layout ?fault ?spans
       ~config:(P.Config.make version) ())

let stacks = [ (P.Engine.Tcpip, "tcpip"); (P.Engine.Rpc, "rpc") ]

(* ----- conservation: stages sum bit-exactly to the RTT --------------------- *)

let test_conservation () =
  List.iter
    (fun (stack, sname) ->
      List.iter
        (fun seed ->
          List.iter
            (fun layout ->
              let r =
                run ~spans:true ~stack ~version:P.Config.All ~layout ~seed ()
              in
              let msgs = Obs.Span.messages r.P.Engine.spans in
              let label =
                Printf.sprintf "%s/%s seed=%d" sname
                  (P.Config.layout_name layout)
                  seed
              in
              Alcotest.(check int)
                (label ^ ": one message per measured roundtrip")
                (List.length r.P.Engine.rtts)
                (Array.length msgs);
              match Obs.Span.conserved msgs ~rtts:r.P.Engine.rtts with
              | Ok () -> ()
              | Error e -> Alcotest.fail (label ^ ": " ^ e))
            [ P.Config.Bipartite; P.Config.Pessimal ])
        [ 42; 7 ])
    stacks

(* every recorded segment must carry a non-negative duration and the
   per-stage budget must account for the whole mean RTT *)
let test_budget_accounts_rtt () =
  List.iter
    (fun (stack, sname) ->
      let r = run ~spans:true ~stack ~version:P.Config.All ~seed:42 () in
      let msgs = Obs.Span.messages r.P.Engine.spans in
      Array.iter
        (fun (m : Obs.Span.message) ->
          Array.iter
            (fun (s : Obs.Span.seg) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: non-negative %s segment" sname
                   (Obs.Span.stage_name s.Obs.Span.stage))
                true
                (s.Obs.Span.dur_us >= 0.0))
            m.Obs.Span.segs)
        msgs;
      let b = Obs.Span.budget msgs in
      let stage_sum = Array.fold_left ( +. ) 0.0 b.Obs.Span.stage_us in
      let per_msg = stage_sum /. float_of_int b.Obs.Span.messages in
      Alcotest.(check (float 1e-6))
        (sname ^ ": stage budget sums to the mean RTT")
        b.Obs.Span.mean_rtt_us per_msg;
      (* the wire shows up: serialization of a minimum frame is 57.6 µs
         each way, so the wire stage must carry >100 µs per roundtrip *)
      Alcotest.(check bool) (sname ^ ": wire stage is visible") true
        (b.Obs.Span.stage_us.(Obs.Span.stage_wire)
         /. float_of_int b.Obs.Span.messages
        > 100.0))
    stacks

(* ----- retransmissions: extra generations, conservation intact ------------- *)

let test_loss_generations () =
  List.iter
    (fun (stack, sname) ->
      let fault =
        { Ns.Fault.clean with Ns.Fault.loss_pct = 10.0 }
      in
      let r =
        run ~fault ~spans:true ~rounds:24 ~stack ~version:P.Config.All
          ~seed:42 ()
      in
      let msgs = Obs.Span.messages r.P.Engine.spans in
      Alcotest.(check bool) (sname ^ ": the run actually retransmitted") true
        (r.P.Engine.retransmissions > 0);
      (match Obs.Span.conserved msgs ~rtts:r.P.Engine.rtts with
      | Ok () -> ()
      | Error e ->
        Alcotest.fail (sname ^ ": conservation under loss: " ^ e));
      let b = Obs.Span.budget msgs in
      Alcotest.(check bool)
        (Printf.sprintf "%s: lost messages recorded extra generations (%d)"
           sname b.Obs.Span.extra_generations)
        true
        (b.Obs.Span.extra_generations > 0);
      Alcotest.(check bool)
        (sname ^ ": retransmit wait carries the recovery time") true
        (b.Obs.Span.stage_us.(Obs.Span.stage_rto_wait) > 0.0);
      Alcotest.(check bool)
        (sname ^ ": some message has generations >= 2") true
        (Array.exists
           (fun (m : Obs.Span.message) -> m.Obs.Span.generations >= 2)
           msgs))
    stacks

(* ----- recording cannot perturb the simulation ----------------------------- *)

let test_off_bit_identity () =
  List.iter
    (fun (stack, sname) ->
      List.iter
        (fun seed ->
          let off = run ~spans:false ~stack ~version:P.Config.All ~seed () in
          let on = run ~spans:true ~stack ~version:P.Config.All ~seed () in
          let bits r =
            List.map Int64.bits_of_float r.P.Engine.rtts
          in
          Alcotest.(check (list int64))
            (Printf.sprintf "%s seed=%d: RTTs bitwise identical" sname seed)
            (bits off) (bits on);
          Alcotest.(check string)
            (Printf.sprintf "%s seed=%d: metrics dump byte-identical" sname
               seed)
            (Obs.Metrics.to_json off.P.Engine.metrics)
            (Obs.Metrics.to_json on.P.Engine.metrics))
        [ 42; 7 ])
    stacks;
  (* spans:false leaves the null ledger in the result *)
  let off = run ~spans:false ~stack:P.Engine.Tcpip ~version:P.Config.All ~seed:42 () in
  Alcotest.(check bool) "spans:false yields the null ledger" false
    (Obs.Span.enabled off.P.Engine.spans)

let test_default_records_none () =
  let r =
    run ~stack:P.Engine.Tcpip ~version:P.Config.All ~rounds:4 ~seed:42 ()
  in
  Alcotest.(check bool) "a default spec yields the null ledger" false
    (Obs.Span.enabled r.P.Engine.spans)

(* ----- report harness: JSON and Perfetto exports --------------------------- *)

let collect_quick () =
  P.Spans.collect ~rounds:8
    ~layouts:[ P.Config.Bipartite; P.Config.Pessimal ]
    ~stack:P.Engine.Tcpip ~version:P.Config.All ()

let test_spans_json () =
  let t = collect_quick () in
  (match P.Spans.check t with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("check: " ^ e));
  match Obs.Json.parse (P.Spans.to_json t) with
  | Error e -> Alcotest.fail ("spans JSON does not parse: " ^ e)
  | Ok v ->
    (match Obs.Json.member "schema_version" v with
    | Some (Obs.Json.Num n) ->
      Alcotest.(check int) "schema_version" Obs.Json.schema_version
        (int_of_float n)
    | _ -> Alcotest.fail "schema_version missing");
    (match Obs.Json.member "layouts" v with
    | Some (Obs.Json.Arr cells) ->
      Alcotest.(check int) "one entry per layout" 2 (List.length cells);
      List.iter
        (fun c ->
          match Obs.Json.member "conserved" c with
          | Some (Obs.Json.Bool b) ->
            Alcotest.(check bool) "conserved stamped true" true b
          | _ -> Alcotest.fail "conserved missing")
        cells
    | _ -> Alcotest.fail "layouts missing");
    match Obs.Json.member "stages" v with
    | Some s ->
      Alcotest.(check int) "stage name table" Obs.Span.n_stages
        (Obs.Json.array_length s)
    | None -> Alcotest.fail "stages missing"

(* flow events must pair up: every ph:"f" closes an earlier ph:"s" with the
   same id, and both endpoints sit on different hosts of the same process *)
let test_perfetto_flows () =
  let t = collect_quick () in
  match Obs.Json.parse (P.Spans.perfetto t) with
  | Error e -> Alcotest.fail ("perfetto JSON does not parse: " ^ e)
  | Ok v ->
    let events =
      match Obs.Json.member "traceEvents" v with
      | Some (Obs.Json.Arr es) -> es
      | _ -> Alcotest.fail "traceEvents missing"
    in
    let field name e =
      match Obs.Json.member name e with
      | Some (Obs.Json.Str s) -> s
      | Some (Obs.Json.Num n) -> string_of_float n
      | _ -> ""
    in
    let starts = Hashtbl.create 64 in
    let finishes = ref 0 in
    List.iter
      (fun e ->
        match field "ph" e with
        | "s" -> Hashtbl.replace starts (field "id" e) (field "tid" e)
        | "f" -> begin
          incr finishes;
          let id = field "id" e in
          match Hashtbl.find_opt starts id with
          | None ->
            Alcotest.fail
              (Printf.sprintf "flow finish id=%s has no earlier start" id)
          | Some start_tid ->
            Alcotest.(check bool) "flow crosses hosts" true
              (start_tid <> field "tid" e)
        end
        | _ -> ())
      events;
    Alcotest.(check bool) "flow events present" true (!finishes > 0);
    Alcotest.(check int) "every start has its finish" (Hashtbl.length starts)
      !finishes;
    (* stage slices are present for every host including the wire *)
    let slice_cats =
      List.filter (fun e -> field "ph" e = "X" && field "cat" e = "span")
        events
    in
    Alcotest.(check bool) "span slices present" true
      (List.length slice_cats > 0)

let suite =
  ( "spans",
    [ Alcotest.test_case "conservation" `Quick test_conservation;
      Alcotest.test_case "budget accounts RTT" `Quick test_budget_accounts_rtt;
      Alcotest.test_case "loss generations" `Quick test_loss_generations;
      Alcotest.test_case "off bit-identity" `Quick test_off_bit_identity;
      Alcotest.test_case "default records no spans" `Quick
        test_default_records_none;
      Alcotest.test_case "spans json" `Quick test_spans_json;
      Alcotest.test_case "perfetto flows" `Quick test_perfetto_flows ] )

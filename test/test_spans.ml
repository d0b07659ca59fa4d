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

(* ----- recorder outputs pinned ---------------------------------------------- *)

(* Every recorder channel of one run, byte-pinned: the Perfetto export of
   the timeline tracer, every span segment and RTT in [%h], and the
   metrics registry.  Both stacks over the three two-host wirings, clean
   and under a plan mixing every wire and device fault, with the tracer
   and the span ledger both on.  [trace-quick] and [spans-quick] only
   check their documents' shape; these digests hold every event, mark and
   counter bit for bit. *)
let mixed_faults =
  { Ns.Fault.clean with
    Ns.Fault.loss_pct = 3.0;
    corrupt_pct = 2.0;
    duplicate_pct = 2.0;
    reorder_pct = 5.0;
    reorder_delay_us = 200.0;
    jitter_us = 20.0;
    tx_stall_pct = 8.0;
    tx_stall_us = 150.0;
    rx_overrun_pct = 2.0 }

let recorder_digests ~stack ~topology ~fault =
  let r =
    P.Engine.run
      (P.Engine.Spec.make ~seed:11 ~rounds:24 ~topology ?fault
         ~trace_events:true ~spans:true ~stack
         ~config:(P.Config.make P.Config.All) ())
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  let perfetto =
    Obs.Perfetto.to_string
      [ { Obs.Perfetto.pid = 0;
          pname = "pinned";
          threads = [ (0, "client"); (1, "server"); (2, "wire") ];
          tracer = r.P.Engine.events } ]
  in
  let segs = Buffer.create 4096 in
  Array.iter
    (fun (m : Obs.Span.message) ->
      Array.iter
        (fun (g : Obs.Span.seg) ->
          Printf.bprintf segs "%d %d %d %d %h %h\n" m.Obs.Span.id
            g.Obs.Span.stage g.Obs.Span.host g.Obs.Span.gen g.Obs.Span.t0_us
            g.Obs.Span.dur_us)
        m.Obs.Span.segs)
    (Obs.Span.messages r.P.Engine.spans);
  String.concat " "
    [ md5 perfetto;
      md5 (Buffer.contents segs);
      md5 (String.concat "," (List.map (Printf.sprintf "%h") r.P.Engine.rtts));
      md5 (Obs.Metrics.to_json r.P.Engine.metrics) ]

(* perfetto, span segments, RTTs, metrics *)
let pinned_recorders =
  [ ( "tcpip pair clean",
      "ff2099807b1c67632a04c3bbc825b542 f20b5e1effc65eaa4a27909a0f1c2e45 \
       698638146ed0a4870e3b55fe31b63eba 79809221b63401e8d0966a3d51ef81c6" );
    ( "tcpip pair mixed",
      "7da80b8ea41b179eea644edd74d29cc0 99b7e6520901ff1b92de4da8630732b5 \
       418e0882da34ed00d0af1ffc031e142b 4f91bdf9085618b5234836e9a9f27fcd" );
    ( "tcpip star:2 clean",
      "34e2ee637a423a49e9514362cd3dc64b 9aea9b926f9b276d94d792643c5c3793 \
       afe04452903eb6512de468656db3186c eda1c19b2eab7e8840d6aaa9f3f09c58" );
    ( "tcpip star:2 mixed",
      "2ba0b26b33aefd984ef9dbdb1292fe39 4872898c7149949115c2661f7197b2e4 \
       37aae42956263e94d80902bb44d03f3d 4a12fa9d7d5627ce21fa1a839055c44d" );
    ( "tcpip line:2 clean",
      "c1dbf6f6f719e26530086395c9b0ae7b d009c0b428d4a6085120b5ad7414f57c \
       7725b89cead0c59855ae89c6e075d37f 73e366d6bda219cd696dcee6862bd3e8" );
    ( "tcpip line:2 mixed",
      "b9ca604300978ff6a7b293f499b28c7a 9cfeb182c26bf00262557f031f3a8987 \
       47ef4e4670f79e2b0dbaf730af9ddff5 2b75d8e77451476d03ce05351e106271" );
    ( "rpc pair clean",
      "f084445aac962f842718ae50ec88e2ab cbf3048bc73210945896b10335510e8f \
       d5f2adc17c32a6a90b910ba579181bf3 8685ac1dc12032e3f1ff08bd675c483e" );
    ( "rpc pair mixed",
      "cc7b802587fee0db0278b9b1bc7ef1eb ef56a798adef382ce7ecebc2a65354b7 \
       9178522ecbbccdada6b3245fee06b93a 30f3a66fe36070b1998db3e79ec3bed3" );
    ( "rpc star:2 clean",
      "4200132010ca6923862542e50937ffe4 1dcfe7f27476d482e835ee16431937d7 \
       47cbe8ae98952612d62e4b8527463210 415b6f80c775cb1d17685fac4cd3bf0e" );
    ( "rpc star:2 mixed",
      "e8e8a38b9d2afb7ba84d68d1836ccbaa f24ed5fda5223c9b09cb4cf1e2fe09fe \
       466edb7c65e60cc463d0efd3762569dc a0c69f0a3ae2b3a1cf540121580ecfe3" );
    ( "rpc line:2 clean",
      "883df6a3b2d733703b123cea676f4751 52993bb667952f2d77e20f5c50b9979d \
       4115bd67227d4821694368f23493a7ab 5d28f81246e57b90875cbfd1e3650cc9" );
    ( "rpc line:2 mixed",
      "a7c734951decadc1f2fc0e8a390451a4 5c637e88394ce8fc0a4d3876ddb82f48 \
       9f0909647a267b84c825001c27cd6211 90f6f6764d11b993460fe343274786c1" ) ]

let test_recorders_pinned () =
  let got =
    List.concat_map
      (fun (stack, sname) ->
        List.concat_map
          (fun topo ->
            List.map
              (fun (fname, fault) ->
                let topology = Option.get (Ns.Topology.of_string topo) in
                ( Printf.sprintf "%s %s %s" sname topo fname,
                  recorder_digests ~stack ~topology ~fault ))
              [ ("clean", None); ("mixed", Some mixed_faults) ])
          [ "pair"; "star:2"; "line:2" ])
      stacks
  in
  Alcotest.(check (list (pair string string))) "recorder digests"
    pinned_recorders got

let suite =
  ( "spans",
    [ Alcotest.test_case "conservation" `Quick test_conservation;
      Alcotest.test_case "budget accounts RTT" `Quick test_budget_accounts_rtt;
      Alcotest.test_case "loss generations" `Quick test_loss_generations;
      Alcotest.test_case "off bit-identity" `Quick test_off_bit_identity;
      Alcotest.test_case "default records no spans" `Quick
        test_default_records_none;
      Alcotest.test_case "spans json" `Quick test_spans_json;
      Alcotest.test_case "perfetto flows" `Quick test_perfetto_flows;
      Alcotest.test_case "recorder outputs pinned" `Quick
        test_recorders_pinned ] )

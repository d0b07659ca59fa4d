type process = {
  pid : int;
  pname : string;
  threads : (int * string) list;
  tracer : Tracer.t;
}

open Json.Out

(* ts with fixed sub-ns precision: deterministic and lossless for the
   simulator's µs-scale clock *)
let us x = Fixed (3, x)

let meta ~pid ?tid ~name label =
  Obj
    ([ ("ph", Str "M"); ("pid", Int pid) ]
    @ (match tid with Some tid -> [ ("tid", Int tid) ] | None -> [])
    @ [ ("name", Str name); ("args", Obj [ ("name", Str label) ]) ])

let event ~pid (e : Tracer.event) =
  let ph, extra =
    match e.Tracer.phase with
    | `Instant -> ("i", [ ("s", Str "t") ])
    | `Begin -> ("b", [ ("id", Int e.Tracer.id) ])
    | `End -> ("e", [ ("id", Int e.Tracer.id) ])
  in
  Obj
    ([ ("name", Str e.Tracer.name); ("cat", Str e.Tracer.cat); ("ph", Str ph) ]
    @ extra
    @ [ ("ts", us e.Tracer.ts); ("pid", Int pid); ("tid", Int e.Tracer.tid);
        ("args", Obj [ ("a0", Int e.Tracer.a0) ]) ])

type span_track = {
  span_pid : int;
  span_pname : string;
  msgs : Span.message array;
}

(* Span segments render as complete ("X") slices on one thread per host;
   each wire hop additionally carries a flow arrow (ph "s" on the sending
   host's slice, ph "f" on the receiving host's slice) so tx→rx causality
   across hosts renders as an arc in the Perfetto UI. *)
let span_events ~flow_id t =
  let flow ph ~id (s : Span.seg) =
    Obj
      ([ ("name", Str "msg"); ("cat", Str "flow"); ("ph", Str ph) ]
      @ (if ph = "f" then [ ("bp", Str "e") ] else [])
      @ [ ("id", Int id); ("ts", us s.Span.t0_us); ("pid", Int t.span_pid);
          ("tid", Int s.Span.host) ])
  in
  let seg_events (m : Span.message) j (s : Span.seg) =
    let segs = m.Span.segs in
    let slice =
      Obj
        [ ("name", Str (Span.stage_name s.Span.stage)); ("cat", Str "span");
          ("ph", Str "X"); ("ts", us s.Span.t0_us);
          ("dur", us (Float.max 0.0 s.Span.dur_us)); ("pid", Int t.span_pid);
          ("tid", Int s.Span.host);
          ("args", Obj [ ("msg", Int m.Span.id); ("gen", Int s.Span.gen) ]) ]
    in
    if
      s.Span.stage = Span.stage_wire
      && j > 0
      && j + 1 < Array.length segs
      && segs.(j + 1).Span.stage = Span.stage_rx_intr
    then begin
      let id = !flow_id in
      incr flow_id;
      [ slice; flow "s" ~id segs.(j - 1); flow "f" ~id segs.(j + 1) ]
    end
    else [ slice ]
  in
  let msg_events (m : Span.message) =
    List.concat (List.mapi (seg_events m) (Array.to_list m.Span.segs))
  in
  List.concat_map msg_events (Array.to_list t.msgs)

let to_string ?(spans = []) processes =
  let process_meta p =
    meta ~pid:p.pid ~name:"process_name" p.pname
    :: List.map
         (fun (tid, label) -> meta ~pid:p.pid ~tid ~name:"thread_name" label)
         p.threads
  in
  let span_meta t =
    meta ~pid:t.span_pid ~name:"process_name" t.span_pname
    :: List.init Span.n_hosts (fun h ->
           meta ~pid:t.span_pid ~tid:h ~name:"thread_name" (Span.host_name h))
  in
  let tracer_events p =
    let acc = ref [] in
    Tracer.iter p.tracer (fun e -> acc := event ~pid:p.pid e :: !acc);
    List.rev !acc
  in
  let flow_id = ref 0 in
  let rows =
    List.concat_map process_meta processes
    @ List.concat_map span_meta spans
    @ List.concat_map tracer_events processes
    @ List.concat_map (span_events ~flow_id) spans
  in
  Json.Out.to_string Compact
    (document [ ("traceEvents", Rows rows); ("displayTimeUnit", Str "ms") ])
  ^ "\n"

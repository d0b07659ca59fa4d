type process = {
  pid : int;
  pname : string;
  threads : (int * string) list;
  tracer : Tracer.t;
}

(* ts with fixed sub-ns precision: deterministic and lossless for the
   simulator's µs-scale clock *)
let ts_fmt = format_of_string "%.3f"

let add_meta buf ~first ~pid ?tid ~name ~label () =
  if not !first then Buffer.add_string buf ",\n";
  first := false;
  (match tid with
  | None ->
    Buffer.add_string buf
      (Printf.sprintf "{\"ph\":\"M\",\"pid\":%d,\"name\":\"%s\"" pid name)
  | Some tid ->
    Buffer.add_string buf
      (Printf.sprintf "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\"" pid
         tid name));
  Buffer.add_string buf
    (Printf.sprintf ",\"args\":{\"name\":\"%s\"}}" (Json.escape label))

let add_event buf ~first ~pid (e : Tracer.event) =
  if not !first then Buffer.add_string buf ",\n";
  first := false;
  let ph, id_field =
    match e.Tracer.phase with
    | `Instant -> ("i", "")
    | `Begin -> ("b", Printf.sprintf ",\"id\":%d" e.Tracer.id)
    | `End -> ("e", Printf.sprintf ",\"id\":%d" e.Tracer.id)
  in
  let scope = if ph = "i" then ",\"s\":\"t\"" else "" in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\"%s%s,\"ts\":%(%f%),\"pid\":%d,\"tid\":%d,\"args\":{\"a0\":%d}}"
       (Json.escape e.Tracer.name) (Json.escape e.Tracer.cat) ph id_field
       scope ts_fmt e.Tracer.ts pid e.Tracer.tid e.Tracer.a0)

type span_track = {
  span_pid : int;
  span_pname : string;
  msgs : Span.message array;
}

(* Span segments render as complete ("X") slices on one thread per host;
   each wire hop additionally carries a flow arrow (ph "s" on the sending
   host's slice, ph "f" on the receiving host's slice) so tx→rx causality
   across hosts renders as an arc in the Perfetto UI. *)
let add_span_events buf ~first ~flow_id t =
  Array.iter
    (fun (m : Span.message) ->
      let segs = m.Span.segs in
      Array.iteri
        (fun j (s : Span.seg) ->
          if not !first then Buffer.add_string buf ",\n";
          first := false;
          Buffer.add_string buf
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":%(%f%),\"dur\":%(%f%),\"pid\":%d,\"tid\":%d,\"args\":{\"msg\":%d,\"gen\":%d}}"
               (Span.stage_name s.Span.stage) ts_fmt s.Span.t0_us ts_fmt
               (Float.max 0.0 s.Span.dur_us) t.span_pid s.Span.host m.Span.id
               s.Span.gen);
          if
            s.Span.stage = Span.stage_wire
            && j > 0
            && j + 1 < Array.length segs
            && segs.(j + 1).Span.stage = Span.stage_rx_intr
          then begin
            let id = !flow_id in
            incr flow_id;
            let tx = segs.(j - 1) and rx = segs.(j + 1) in
            Buffer.add_string buf
              (Printf.sprintf
                 ",\n{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":%d,\"ts\":%(%f%),\"pid\":%d,\"tid\":%d}"
                 id ts_fmt tx.Span.t0_us t.span_pid tx.Span.host);
            Buffer.add_string buf
              (Printf.sprintf
                 ",\n{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":%d,\"ts\":%(%f%),\"pid\":%d,\"tid\":%d}"
                 id ts_fmt rx.Span.t0_us t.span_pid rx.Span.host)
          end)
        segs)
    t.msgs

let to_buffer ?(spans = []) buf processes =
  Buffer.add_string buf
    (Printf.sprintf "{\"schema_version\":%d,\"traceEvents\":[\n"
       Json.schema_version);
  let first = ref true in
  List.iter
    (fun p ->
      add_meta buf ~first ~pid:p.pid ~name:"process_name" ~label:p.pname ();
      List.iter
        (fun (tid, label) ->
          add_meta buf ~first ~pid:p.pid ~tid ~name:"thread_name" ~label ())
        p.threads)
    processes;
  List.iter
    (fun t ->
      add_meta buf ~first ~pid:t.span_pid ~name:"process_name"
        ~label:t.span_pname ();
      for h = 0 to Span.n_hosts - 1 do
        add_meta buf ~first ~pid:t.span_pid ~tid:h ~name:"thread_name"
          ~label:(Span.host_name h) ()
      done)
    spans;
  List.iter
    (fun p -> Tracer.iter p.tracer (fun e -> add_event buf ~first ~pid:p.pid e))
    processes;
  let flow_id = ref 0 in
  List.iter (fun t -> add_span_events buf ~first ~flow_id t) spans;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n"

let to_string ?spans processes =
  let buf = Buffer.create 65536 in
  to_buffer ?spans buf processes;
  Buffer.contents buf

(* A store-and-forward Ethernet switch.

   Each port attaches to one station of an [Ether.Link] (the mirage mlnet
   attach/detach idiom: the switch registers itself as that station's
   receive handler; detach unregisters it).  A frame that arrives on a port
   is looked up in the forwarding table — static entries installed by the
   fabric, or learned from source addresses — and queued on the egress
   port, where a per-port [busy_until] serializes transmissions exactly the
   way the LANCE serializes its own (frames overlap on *different* segments,
   never on one).

   Every drop (egress queue overflow, partition, unknown destination) goes
   through [Sim.drop] on the wire's host code, the call a LANCE rx overrun
   makes: the metrics counter, the span ledger's drop mark and a tracer
   instant move together, so the Invariant conservation laws and the span
   state machine hold on the forwarding path just as they do on the host
   path. *)

module Obs = Protolat_obs

type port = {
  link : Ether.Link.t;
  station : int;
  mutable attached : bool;
  mutable partitioned : bool;
  mutable queued : int;  (* frames awaiting the start of serialization *)
  mutable busy_until : float;
}

type t = {
  sim : Sim.t;
  latency_us : float;
  queue_frames : int;
  learning : bool;
  ports : port option array;
  table : (int, int) Hashtbl.t;  (* dst mac -> egress port *)
  c_in : Obs.Metrics.counter;
  c_out : Obs.Metrics.counter;
  c_queue_drops : Obs.Metrics.counter;
  c_unknown_drops : Obs.Metrics.counter;
  c_partition_drops : Obs.Metrics.counter;
  c_flood_copies : Obs.Metrics.counter;
  g_queue_peak : Obs.Metrics.gauge;
  mutable queue_peak : int;
}

let create sim ~ports ?(latency_us = Topology.default_switch_latency_us)
    ?(queue_frames = Topology.default_port_queue_frames) ?(learning = false)
    ?metrics () =
  if ports < 1 then invalid_arg "Switch.create: need at least one port";
  if queue_frames < 1 then
    invalid_arg "Switch.create: need at least one queue frame";
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let m = Obs.Metrics.scoped metrics "switch" in
  { sim;
    latency_us;
    queue_frames;
    learning;
    ports = Array.make ports None;
    table = Hashtbl.create 16;
    c_in = Obs.Metrics.counter m ~help:"frames received on any port" "frames_in";
    c_out =
      Obs.Metrics.counter m ~help:"frames serialized out of an egress port"
        "frames_out";
    c_queue_drops =
      Obs.Metrics.counter m ~help:"frames lost to egress queue overflow"
        "queue_drops";
    c_unknown_drops =
      Obs.Metrics.counter m
        ~help:"frames to unknown destinations (static table, no flooding)"
        "unknown_drops";
    c_partition_drops =
      Obs.Metrics.counter m ~help:"frames lost to a partitioned port"
        "partition_drops";
    c_flood_copies =
      Obs.Metrics.counter m
        ~help:"extra copies made flooding unknown destinations"
        "flood_copies";
    g_queue_peak =
      Obs.Metrics.gauge m ~help:"peak egress queue depth over any port"
        "queue_peak";
    queue_peak = 0 }

let ports t = Array.length t.ports

let check_port t port =
  if port < 0 || port >= Array.length t.ports then
    invalid_arg "Switch: bad port"

let drop t counter ~name =
  Sim.drop t.sim counter ~host:Obs.Span.host_wire ~cat:"switch" ~name ~a0:0

let forward t p (frame : Ether.frame) =
  if p.partitioned || not p.attached then
    drop t t.c_partition_drops ~name:"partition_drop"
  else if p.queued >= t.queue_frames then
    drop t t.c_queue_drops ~name:"queue_drop"
  else begin
    p.queued <- p.queued + 1;
    if p.queued > t.queue_peak then begin
      t.queue_peak <- p.queued;
      Obs.Metrics.set t.g_queue_peak (float_of_int t.queue_peak)
    end;
    (* store-and-forward: the frame is already fully received (the link
       models serialization before delivery); the switch spends its
       decision latency, then waits for the egress serializer *)
    let ready = Sim.now t.sim +. t.latency_us in
    let start = Float.max ready p.busy_until in
    p.busy_until <- start +. Ether.tx_time_us (Bytes.length frame.payload);
    Sim.schedule_at t.sim ~at:start (fun () ->
        p.queued <- p.queued - 1;
        Obs.Metrics.inc t.c_out;
        Ether.Link.transmit p.link ~station:p.station frame)
  end

let ingress t ~port (frame : Ether.frame) =
  match t.ports.(port) with
  | None -> ()
  | Some src ->
    Obs.Metrics.inc t.c_in;
    if t.learning then Hashtbl.replace t.table frame.src port;
    if src.partitioned then drop t t.c_partition_drops ~name:"partition_drop"
    else begin
      match Hashtbl.find_opt t.table frame.dst with
      | Some out when out <> port -> (
        match t.ports.(out) with
        | Some p -> forward t p frame
        | None -> drop t t.c_unknown_drops ~name:"unknown_drop")
      | Some _ ->
        (* destination hangs off the ingress port: never reflected *)
        drop t t.c_unknown_drops ~name:"unknown_drop"
      | None ->
        if not t.learning then drop t t.c_unknown_drops ~name:"unknown_drop"
        else begin
          (* flood every other attached port, in port order *)
          let copies = ref 0 in
          Array.iteri
            (fun i po ->
              match po with
              | Some p when i <> port ->
                incr copies;
                if !copies > 1 then Obs.Metrics.inc t.c_flood_copies;
                forward t p frame
              | _ -> ())
            t.ports;
          if !copies = 0 then
            drop t t.c_unknown_drops ~name:"unknown_drop"
        end
    end

let attach t ~port ~station link =
  check_port t port;
  (match t.ports.(port) with
  | Some p when p.attached -> invalid_arg "Switch.attach: port in use"
  | _ -> ());
  let p =
    { link; station; attached = true; partitioned = false; queued = 0;
      busy_until = 0.0 }
  in
  t.ports.(port) <- Some p;
  Ether.Link.attach link ~station (fun frame -> ingress t ~port frame)

let detach t ~port =
  check_port t port;
  match t.ports.(port) with
  | None -> ()
  | Some p ->
    p.attached <- false;
    Ether.Link.attach p.link ~station:p.station (fun _ -> ());
    t.ports.(port) <- None

let add_static t ~mac ~port =
  check_port t port;
  Hashtbl.replace t.table mac port

let forget t ~mac = Hashtbl.remove t.table mac

let lookup t ~mac = Hashtbl.find_opt t.table mac

let set_partition t ~port on =
  check_port t port;
  match t.ports.(port) with
  | None -> invalid_arg "Switch.set_partition: no port"
  | Some p -> p.partitioned <- on

let partitioned t ~port =
  check_port t port;
  match t.ports.(port) with Some p -> p.partitioned | None -> false

let queue_depth t ~port =
  check_port t port;
  match t.ports.(port) with Some p -> p.queued | None -> 0

let in_flight t =
  Array.fold_left
    (fun acc -> function Some p -> acc + p.queued | None -> acc)
    0 t.ports

let queue_peak t = t.queue_peak

let frames_in t = Obs.Metrics.value t.c_in

let frames_out t = Obs.Metrics.value t.c_out

let queue_drops t = Obs.Metrics.value t.c_queue_drops

let unknown_drops t = Obs.Metrics.value t.c_unknown_drops

let partition_drops t = Obs.Metrics.value t.c_partition_drops

let flood_copies t = Obs.Metrics.value t.c_flood_copies

let min_frame_bytes = 64

let preamble_bytes = 8

let bits_per_second = 10_000_000.0

let header_bytes = 14

let frame_bytes payload_len = max min_frame_bytes (header_bytes + payload_len)

let tx_time_us payload_len =
  float_of_int ((frame_bytes payload_len + preamble_bytes) * 8)
  /. bits_per_second *. 1_000_000.0

type frame = {
  dst : int;
  src : int;
  ethertype : int;
  payload : bytes;
}

module Obs = Protolat_obs

module Link = struct
  type t = {
    sim : Sim.t;
    propagation_us : float;
    handlers : (frame -> unit) option array;
    c_sent : Obs.Metrics.counter;
    c_dropped : Obs.Metrics.counter;
    mutable loss : frame -> bool;
    mutable fault : Fault.t option;
    (* host code per station: on the classic two-host link stations double
       as host codes; fabric links carry the attached host's code on one
       side and [Span.host_wire] on the switch side *)
    span_hosts : int array;
    (* cross-shard delivery: a station living on another shard's simulator
       receives through a sink instead of a locally scheduled handler *)
    remotes : (at:float -> frame -> unit) option array;
  }

  let create sim ?(propagation_us = 0.3) ?metrics () =
    let metrics =
      match metrics with Some m -> m | None -> Obs.Metrics.create ()
    in
    { sim;
      propagation_us;
      handlers = Array.make 2 None;
      c_sent =
        Obs.Metrics.counter metrics ~help:"frames put on the wire"
          "frames_sent";
      c_dropped =
        Obs.Metrics.counter metrics ~help:"frames lost on the wire"
          "frames_dropped";
      loss = (fun _ -> false);
      fault = None;
      span_hosts = [| 0; 1 |];
      remotes = Array.make 2 None }

  let check_station station =
    if station < 0 || station > 1 then invalid_arg "Ether.Link: bad station"

  let attach t ~station handler =
    check_station station;
    t.handlers.(station) <- Some handler

  let set_span_hosts t ~station0 ~station1 =
    t.span_hosts.(0) <- station0;
    t.span_hosts.(1) <- station1

  let set_remote t ~station sink =
    check_station station;
    t.remotes.(station) <- Some sink

  let inject t ~station ~at frame =
    check_station station;
    Sim.schedule_at t.sim ~at (fun () ->
        match t.handlers.(station) with Some h -> h frame | None -> ())

  let wire = "wire"

  (* the wire's host code: the thread of its events, the host of its drops *)
  let host = Obs.Span.host_wire

  let drop t seq =
    Sim.drop t.sim t.c_dropped ~host ~cat:wire ~name:"drop" ~a0:seq

  let transmit t ~station frame =
    check_station station;
    Obs.Metrics.inc t.c_sent;
    let peer = 1 - station in
    let spans = Sim.spans t.sim in
    Obs.Span.mark_wire spans ~rx:t.span_hosts.(peer)
      ~station:t.span_hosts.(station) ();
    (* read once per frame, so its async span's begin and end pair up *)
    let traced = Obs.Tracer.enabled (Sim.tracer t.sim) in
    let len = Bytes.length frame.payload in
    (* frame sequence number: unique span id and stable drop label *)
    let seq = Obs.Metrics.value t.c_sent in
    let base_delay = tx_time_us len +. t.propagation_us in
    let deliver ~span delay frame =
      match t.remotes.(peer) with
      | Some sink ->
        (* the peer lives on another shard: hand the frame to the exchange
           with its absolute arrival time.  Tracers and spans are per-shard,
           so cross-shard links run without them. *)
        sink ~at:(Sim.now t.sim +. delay) frame
      | None ->
        if span && traced then
          Obs.Tracer.span_begin (Sim.tracer t.sim) ~tid:host ~id:seq ~cat:wire
            ~name:"frame" ~a0:len;
        Sim.schedule t.sim ~delay (fun () ->
            if span && traced then
              Obs.Tracer.span_end (Sim.tracer t.sim) ~tid:host ~id:seq
                ~cat:wire ~name:"frame" ~a0:len;
            if span then Obs.Span.mark_rx_intr spans ~host:t.span_hosts.(peer);
            match t.handlers.(peer) with
            | Some h -> h frame
            | None -> ())
    in
    if t.loss frame then drop t seq
    else
      match t.fault with
      | None -> deliver ~span:true base_delay frame
      | Some f ->
        let v = Fault.wire_verdict f ~len:(Bytes.length frame.payload) in
        if v.Fault.drop then drop t seq
        else begin
          let frame =
            if v.Fault.corrupt_at < 0 then frame
            else begin
              (* senders keep a reference to the payload for
                 retransmission: corrupt a copy, never in place *)
              let payload = Bytes.copy frame.payload in
              let b = Char.code (Bytes.get payload v.Fault.corrupt_at) in
              Bytes.set payload v.Fault.corrupt_at
                (Char.chr (b lxor v.Fault.corrupt_mask));
              Sim.instant t.sim ~tid:host ~cat:wire ~name:"corrupt" ~a0:seq;
              { frame with payload }
            end
          in
          let delay = base_delay +. v.Fault.extra_delay_us in
          deliver ~span:true delay frame;
          if v.Fault.duplicate then begin
            Sim.instant t.sim ~tid:host ~cat:wire ~name:"dup" ~a0:seq;
            (* the copy arrives one serialization time later *)
            deliver ~span:false (delay +. tx_time_us (Bytes.length frame.payload))
              frame
          end
        end

  let set_filter t f = t.loss <- f

  let set_fault t f = t.fault <- f

  let fault t = t.fault

  let frames_sent t = Obs.Metrics.value t.c_sent

  let frames_dropped t = Obs.Metrics.value t.c_dropped
end

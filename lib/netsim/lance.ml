module Obs = Protolat_obs

type mode =
  | Copy
  | Usc_direct

type t = {
  sim : Sim.t;
  link : Ether.Link.t;
  station : int;
  host : int;  (* host code of this device's instants and drop marks *)
  mode : mode;
  ring_size : int;
  shared : Sparse_mem.t; (* tx ring then rx ring *)
  controller_overhead_us : float;
  rx_interrupt_delay_us : float;
  mutable tx_index : int;
  mutable rx_index : int;
  mutable on_tx_complete : unit -> unit;
  mutable on_receive : Ether.frame -> unit;
  c_tx : Obs.Metrics.counter;
  c_rx : Obs.Metrics.counter;
  c_rx_missed : Obs.Metrics.counter;
  c_tx_stalls : Obs.Metrics.counter;
  c_down_drops : Obs.Metrics.counter;
  mutable busy_until : float;
      (* the controller serializes: one frame on the wire at a time *)
  mutable tx_outstanding : int;
      (* descriptors handed over but not yet returned (OWN still set) *)
  mutable rx_missed : bool;
      (* an rx-descriptor overrun happened since the last receive *)
  mutable power : bool;
      (* a powered-down controller (crashed host) drops every incoming
         frame on the floor — no DMA, no interrupt *)
  mutable fault : Fault.t option;
}

let dev = "dev"

let create sim simmem link ~station ?(host = station) ?(mode = Usc_direct)
    ?(ring_size = 16) ?(controller_overhead_us = 47.0)
    ?(rx_interrupt_delay_us = 2.0) ?metrics () =
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let t =
    { sim;
      link;
      station;
      host;
      mode;
      ring_size;
      shared =
        Sparse_mem.create simmem ~words:(2 * ring_size * Usc.descriptor_words);
      controller_overhead_us;
      rx_interrupt_delay_us;
      tx_index = 0;
      rx_index = 0;
      on_tx_complete = (fun () -> ());
      on_receive = (fun _ -> ());
      c_tx =
        Obs.Metrics.counter metrics ~help:"frames handed to the controller"
          "lance.frames_tx";
      c_rx =
        Obs.Metrics.counter metrics ~help:"frames DMAed into the rx ring"
          "lance.frames_rx";
      c_rx_missed =
        Obs.Metrics.counter metrics
          ~help:"frames dropped for want of an rx descriptor"
          "lance.rx_missed";
      c_tx_stalls =
        Obs.Metrics.counter metrics ~help:"injected controller tx stalls"
          "lance.tx_stalls";
      c_down_drops =
        Obs.Metrics.counter metrics
          ~help:"frames arriving while the controller was powered down"
          "lance.down_drops";
      busy_until = 0.0;
      tx_outstanding = 0;
      rx_missed = false;
      power = true;
      fault = None }
  in
  Ether.Link.attach link ~station (fun frame ->
      let len = Bytes.length frame.Ether.payload in
      if not t.power then
        Sim.drop sim t.c_down_drops ~host ~cat:dev ~name:"down_drop" ~a0:len
      else
      let overrun =
        match t.fault with Some f -> Fault.rx_overrun f | None -> false
      in
      if overrun then begin
        (* no free receive descriptor: the controller drops the frame and
           latches the MISS condition for the next receive interrupt *)
        t.rx_missed <- true;
        Sim.drop sim t.c_rx_missed ~host ~cat:dev ~name:"rx_overrun" ~a0:len
      end
      else begin
        Obs.Metrics.inc t.c_rx;
        Sim.instant sim ~tid:host ~cat:dev ~name:"lance_rx" ~a0:len;
        (* controller DMAs the frame and fills the next receive descriptor *)
        let desc = t.ring_size + t.rx_index in
        t.rx_index <- (t.rx_index + 1) mod t.ring_size;
        Usc.set t.shared ~desc Usc.Status (Ether.frame_bytes len);
        Usc.set t.shared ~desc Usc.Flags Usc.flags_enp;
        Sim.schedule sim ~delay:t.rx_interrupt_delay_us (fun () ->
            t.on_receive frame)
      end);
  t

let set_handlers t ~on_tx_complete ~on_receive =
  t.on_tx_complete <- on_tx_complete;
  t.on_receive <- on_receive

let mode t = t.mode

let fill_tx_descriptor t ~desc ~len =
  let neg_len = (-len) land 0xFFFF in
  match t.mode with
  | Usc_direct ->
    (* USC-generated direct accessors: touch only the words that change *)
    Usc.set t.shared ~desc Usc.Addr_lo (desc * 64 land 0xFFFF);
    Usc.set t.shared ~desc Usc.Byte_count neg_len;
    Usc.set t.shared ~desc Usc.Flags
      (Usc.flags_own lor Usc.flags_stp lor Usc.flags_enp)
  | Copy ->
    ignore
      (Usc.update_via_copy t.shared ~desc (fun dense ->
           dense.(Usc.field_word Usc.Addr_lo) <- desc * 64 land 0xFFFF;
           dense.(Usc.field_word Usc.Byte_count) <- neg_len;
           dense.(Usc.field_word Usc.Flags) <-
             dense.(Usc.field_word Usc.Flags) land 0x00FF
             lor ((Usc.flags_own lor Usc.flags_stp lor Usc.flags_enp) lsl 8)))

let tx_complete_latency_us t payload_len =
  t.controller_overhead_us +. Ether.tx_time_us payload_len

let tx_ring_full t = t.tx_outstanding >= t.ring_size

let transmit_live t frame =
  let desc = t.tx_index in
  t.tx_index <- (t.tx_index + 1) mod t.ring_size;
  t.tx_outstanding <- t.tx_outstanding + 1;
  fill_tx_descriptor t ~desc ~len:(Bytes.length frame.Ether.payload);
  Obs.Metrics.inc t.c_tx;
  Sim.instant t.sim ~tid:t.host ~cat:dev ~name:"lance_tx"
    ~a0:(Bytes.length frame.Ether.payload);
  (* the controller picks the frame up after its overhead (plus any
     injected stall), but transmits frames strictly in order: a frame
     waits for the wire to go idle *)
  let stall =
    match t.fault with Some f -> Fault.draw_tx_stall f | None -> 0.0
  in
  if stall > 0.0 then begin
    Obs.Metrics.inc t.c_tx_stalls;
    Sim.instant t.sim ~tid:t.host ~cat:dev ~name:"tx_stall"
      ~a0:(int_of_float stall)
  end;
  let now = Sim.now t.sim in
  let start =
    Float.max (now +. t.controller_overhead_us +. stall) t.busy_until
  in
  let tx_time = Ether.tx_time_us (Bytes.length frame.Ether.payload) in
  t.busy_until <- start +. tx_time;
  Sim.schedule_at t.sim ~at:start (fun () ->
      Ether.Link.transmit t.link ~station:t.station frame;
      (* OWN returns to the host; transmission-complete interrupt fires
         when the frame has left the wire *)
      Sim.schedule t.sim ~delay:tx_time (fun () ->
          Usc.set t.shared ~desc Usc.Flags (Usc.flags_stp lor Usc.flags_enp);
          t.tx_outstanding <- t.tx_outstanding - 1;
          t.on_tx_complete ()))

let transmit t frame =
  if tx_ring_full t then
    invalid_arg "Lance.transmit: tx ring full (check tx_ring_full first)";
  if not t.power then
    (* a crashed host cannot put frames on the wire; a straggling interrupt
       handler scheduled before the crash just loses its frame *)
    Sim.drop t.sim t.c_down_drops ~host:t.host ~cat:dev ~name:"down_drop"
      ~a0:(Bytes.length frame.Ether.payload)
  else transmit_live t frame

let set_fault t f = t.fault <- f

let set_power t on = t.power <- on

let powered t = t.power

let down_drops t = Obs.Metrics.value t.c_down_drops

let stall t ~us =
  if not (Float.is_finite us) || us < 0.0 then
    invalid_arg "Lance.stall: duration must be finite and non-negative";
  let now = Sim.now t.sim in
  t.busy_until <- Float.max t.busy_until now +. us

let consume_rx_missed t =
  let m = t.rx_missed in
  t.rx_missed <- false;
  m

let rx_missed_total t = Obs.Metrics.value t.c_rx_missed

let tx_descriptor_rings t = t.shared

let words_touched_per_tx_update = function
  | Copy -> 2 * Usc.descriptor_words (* 5 reads + 5 writes *)
  | Usc_direct -> 4 (* 3 writes + 1 read-modify-write read *)

let frames_transmitted t = Obs.Metrics.value t.c_tx

let frames_received t = Obs.Metrics.value t.c_rx

(* Per-message latency provenance.

   A span ledger records, for every round-trip message the engine drives, the
   boundary between processing stages as the message hops client app ->
   send-side protocol -> NIC tx queue -> wire -> rx interrupt -> receive-side
   protocol -> server app and back.  Marks are appended to growable SoA
   arrays (no per-mark allocation, a la Tracer/Trace) with timestamps read
   straight from the simulator clock cell, so recording never perturbs the
   simulation: spans on and off are bit-identical by construction.

   Stages are contiguous by construction — each accepted mark closes the
   previous stage and opens the next — so a message's stage durations
   telescope to [finish - start], and the extractor repairs the final
   duration by at most a few ulps so that a left-to-right float fold over
   the stage durations reproduces the measured RTT *bit-exactly* (the same
   conservation law Attrib obeys against Perf).

   The ledger is a state machine keyed on (stage, host): marks that do not
   continue the current message's critical path — pure ACKs, duplicate
   deliveries, NACKs, stray retransmissions of an already-delivered reply —
   are silently ignored, which is what makes a single ledger work for a
   ping-pong exchange with one message logically in flight.  Retransmissions
   open a new *generation* of the same message id (stage resets to send-side
   protocol); chaos reconnects ride the same mechanism via the protocols'
   retransmit paths. *)

(* stage codes *)
let stage_app = 0
let stage_tx_proto = 1
let stage_tx_queue = 2
let stage_wire = 3
let stage_rx_intr = 4
let stage_rx_proto = 5
let stage_rto_wait = 6
let stage_switch = 7
let n_stages = 8

let stage_name = function
  | 0 -> "app"
  | 1 -> "tx_proto"
  | 2 -> "tx_queue"
  | 3 -> "wire"
  | 4 -> "rx_intr"
  | 5 -> "rx_proto"
  | 6 -> "rto_wait"
  | 7 -> "switch"
  | _ -> invalid_arg "Span.stage_name"

(* host codes: engine convention, matching tracer tids *)
let host_client = 0
let host_server = 1
let host_wire = 2
let n_hosts = 3

let host_name = function
  | 0 -> "client"
  | 1 -> "server"
  | 2 -> "wire"
  | _ -> invalid_arg "Span.host_name"

type t = {
  on : bool;
  clock : float array;
  (* SoA mark ledger: stage entered, on which host, generation, owning
     message, at what time *)
  mutable ts : float array;
  mutable stage : int array;
  mutable host : int array;
  mutable gen : int array;
  mutable len : int;
  (* per-message bookkeeping *)
  mutable msg_start : int array; (* opening mark index per message id *)
  mutable measured : bool array; (* set when the message is rolled closed *)
  mutable nmsg : int;
  (* state machine *)
  mutable cur_stage : int;
  mutable cur_host : int;
  mutable cur_gen : int;
  mutable expect_rx : int; (* receiving host of the frame now on the wire *)
  mutable max_gen : int; (* within the current message *)
}

let null =
  { on = false;
    clock = [| 0.0 |];
    ts = [||];
    stage = [||];
    host = [||];
    gen = [||];
    len = 0;
    msg_start = [||];
    measured = [||];
    nmsg = 0;
    cur_stage = stage_app;
    cur_host = host_client;
    cur_gen = 0;
    expect_rx = -1;
    max_gen = 0 }

let create ~clock () =
  { on = true;
    clock;
    ts = Array.make 4096 0.0;
    stage = Array.make 4096 0;
    host = Array.make 4096 0;
    gen = Array.make 4096 0;
    len = 0;
    msg_start = Array.make 256 0;
    measured = Array.make 256 false;
    nmsg = 0;
    cur_stage = stage_app;
    cur_host = host_client;
    cur_gen = 0;
    expect_rx = -1;
    max_gen = 0 }

let enabled t = t.on

let grow_marks t =
  let cap = 2 * Array.length t.ts in
  let f = Array.make cap 0.0 in
  Array.blit t.ts 0 f 0 t.len;
  t.ts <- f;
  let g a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.stage <- g t.stage;
  t.host <- g t.host;
  t.gen <- g t.gen

let push t ~at ~stage ~host =
  if t.len = Array.length t.ts then grow_marks t;
  let i = t.len in
  t.ts.(i) <- at;
  t.stage.(i) <- stage;
  t.host.(i) <- host;
  t.gen.(i) <- t.cur_gen;
  t.len <- i + 1;
  t.cur_stage <- stage;
  t.cur_host <- host

let grow_msgs t =
  let cap = 2 * Array.length t.msg_start in
  let a = Array.make cap 0 in
  Array.blit t.msg_start 0 a 0 t.nmsg;
  t.msg_start <- a;
  let b = Array.make cap false in
  Array.blit t.measured 0 b 0 t.nmsg;
  t.measured <- b

let open_message t ~at =
  if t.nmsg = Array.length t.msg_start then grow_msgs t;
  t.msg_start.(t.nmsg) <- t.len;
  t.measured.(t.nmsg) <- false;
  t.nmsg <- t.nmsg + 1;
  t.cur_gen <- 0;
  t.max_gen <- 0;
  t.expect_rx <- -1;
  (* the opening mark: client app turnaround starts the round trip *)
  push t ~at ~stage:stage_app ~host:host_client

let begin_run t ~at = if t.on then open_message t ~at

let roll t ~at ~measured =
  if t.on then begin
    if t.nmsg = 0 then invalid_arg "Span.roll: begin_run first";
    t.measured.(t.nmsg - 1) <- measured;
    open_message t ~at
  end

(* State-machine transitions.  Every mark names the stage being *entered*;
   it is accepted only when it extends the current stage on the expected
   host, so off-path frames (acks, dups, nacks) cannot hijack the ledger. *)

let mark_tx_proto t ~host =
  if t.on && t.cur_stage = stage_app && t.cur_host = host then
    push t ~at:t.clock.(0) ~stage:stage_tx_proto ~host

let mark_tx_queue t ~host =
  if t.on && t.cur_stage = stage_tx_proto && t.cur_host = host then
    push t ~at:t.clock.(0) ~stage:stage_tx_queue ~host

(* [station] is the span host code of the transmitting side; [rx] that of
   the receiving side.  On the legacy point-to-point link stations double as
   host codes, so [rx] defaults to [1 - station].  Switch egress ports carry
   [host_wire] on both sides of the guard: a hop re-enters the wire stage
   from the switch stage, which is what makes a multi-hop path telescope
   into wire/switch/wire/... segments without breaking conservation. *)
let mark_wire t ?rx ~station () =
  if
    t.on
    && (t.cur_stage = stage_tx_queue || t.cur_stage = stage_switch)
    && t.cur_host = station
  then begin
    t.expect_rx <- (match rx with Some h -> h | None -> 1 - station);
    push t ~at:t.clock.(0) ~stage:stage_wire ~host:host_wire
  end

let mark_rx_intr t ~host =
  if t.on && t.cur_stage = stage_wire && t.expect_rx = host then
    if host = host_wire then
      (* delivery to a switch ingress port: the message dwells in the fabric
         (store-and-forward latency + egress queueing) until the next hop's
         wire mark *)
      push t ~at:t.clock.(0) ~stage:stage_switch ~host
    else push t ~at:t.clock.(0) ~stage:stage_rx_intr ~host

let mark_rx_proto t ~host =
  if t.on && t.cur_stage = stage_rx_intr && t.cur_host = host then
    push t ~at:t.clock.(0) ~stage:stage_rx_proto ~host

let mark_app t ~host =
  if t.on && t.cur_stage = stage_rx_proto && t.cur_host = host then
    push t ~at:t.clock.(0) ~stage:stage_app ~host

(* A frame belonging to the tracked message died (wire loss, powered-down or
   overrun controller): the message now waits on a retransmit timer. *)
let mark_drop t ~host =
  if
    t.on
    && (t.cur_stage = stage_wire || t.cur_stage = stage_rx_intr
      || t.cur_stage = stage_tx_queue || t.cur_stage = stage_switch)
  then push t ~at:t.clock.(0) ~stage:stage_rto_wait ~host

(* A retransmission: new generation of the same message, back to send-side
   protocol processing on the retransmitting host.  Accepted from any stage —
   after corruption the message can be stuck mid-receive, after loss in
   rto_wait. *)
let retry t ~host =
  if t.on && t.nmsg > 0 then begin
    t.cur_gen <- t.cur_gen + 1;
    if t.cur_gen > t.max_gen then t.max_gen <- t.cur_gen;
    t.expect_rx <- -1;
    push t ~at:t.clock.(0) ~stage:stage_tx_proto ~host
  end

(* ----- extraction --------------------------------------------------------- *)

type seg = {
  stage : int;
  host : int;
  gen : int;
  t0_us : float;
  dur_us : float;
}

type message = {
  id : int;
  start_us : float;
  finish_us : float;
  total_us : float;
  generations : int;
  segs : seg array;
}

(* Nudge the final duration by ulps until a left-to-right float fold over
   [durs] lands exactly on [total].  Adjacent-timestamp subtractions are
   individually correctly rounded, and in the common regime (window start
   comparable to window length) every partial sum is exactly representable,
   so the fold is already exact and the loop does zero iterations; the nudge
   covers the remaining corner cases (sub-nanosecond adjustment, physically
   meaningless). *)
let repair durs total =
  let n = Array.length durs in
  if n > 0 then begin
    let s = ref 0.0 in
    for j = 0 to n - 2 do
      s := !s +. durs.(j)
    done;
    let d = ref (total -. !s) in
    let steps = ref 0 in
    while !s +. !d <> total && !steps < 64 do
      if !s +. !d < total then d := Float.succ !d else d := Float.pred !d;
      incr steps
    done;
    durs.(n - 1) <- !d
  end

let messages t =
  if not t.on then [||]
  else begin
    let out = ref [] in
    (* only closed messages have a successor whose opening mark gives the
       finish time; the last (still-open) message is never measured *)
    for m = t.nmsg - 2 downto 0 do
      if t.measured.(m) then begin
        let k0 = t.msg_start.(m) and k1 = t.msg_start.(m + 1) in
        let start = t.ts.(k0) and finish = t.ts.(k1) in
        (* same operands and operation as the engine's RTT measurement *)
        let total = finish -. start in
        let nseg = k1 - k0 in
        let durs =
          Array.init nseg (fun j ->
              let k = k0 + j in
              let next = if k + 1 = k1 then finish else t.ts.(k + 1) in
              next -. t.ts.(k))
        in
        repair durs total;
        let segs =
          Array.init nseg (fun j ->
              let k = k0 + j in
              { stage = t.stage.(k);
                host = t.host.(k);
                gen = t.gen.(k);
                t0_us = t.ts.(k);
                dur_us = durs.(j) })
        in
        let generations =
          1 + Array.fold_left (fun acc s -> max acc s.gen) 0 segs
        in
        out :=
          { id = m; start_us = start; finish_us = finish; total_us = total;
            generations; segs }
          :: !out
      end
    done;
    Array.of_list !out
  end

let conserved msgs ~rtts =
  let nr = List.length rtts and nm = Array.length msgs in
  if nr <> nm then
    Error (Printf.sprintf "span count mismatch: %d messages vs %d rtts" nm nr)
  else begin
    let err = ref None in
    List.iteri
      (fun i rtt ->
        if !err = None then begin
          let m = msgs.(i) in
          let sum =
            Array.fold_left (fun acc s -> acc +. s.dur_us) 0.0 m.segs
          in
          if sum <> rtt || m.total_us <> rtt then
            err :=
              Some
                (Printf.sprintf
                   "message %d: stage sum %.17g / total %.17g vs rtt %.17g"
                   m.id sum m.total_us rtt)
        end)
      rtts;
    match !err with None -> Ok () | Some e -> Error e
  end

(* ----- aggregation -------------------------------------------------------- *)

type budget = {
  messages : int;
  mean_rtt_us : float;
  stage_us : float array; (* per stage, summed across messages *)
  host_stage_us : float array array; (* [host].[stage] *)
  extra_generations : int;
}

let budget msgs =
  let stage_us = Array.make n_stages 0.0 in
  let host_stage_us = Array.make_matrix n_hosts n_stages 0.0 in
  let total = ref 0.0 and extra = ref 0 in
  Array.iter
    (fun m ->
      total := !total +. m.total_us;
      extra := !extra + (m.generations - 1);
      Array.iter
        (fun s ->
          stage_us.(s.stage) <- stage_us.(s.stage) +. s.dur_us;
          host_stage_us.(s.host).(s.stage) <-
            host_stage_us.(s.host).(s.stage) +. s.dur_us)
        m.segs)
    msgs;
  let n = Array.length msgs in
  { messages = n;
    mean_rtt_us = (if n = 0 then 0.0 else !total /. float_of_int n);
    stage_us;
    host_stage_us;
    extra_generations = !extra }

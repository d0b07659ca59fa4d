(* Multi-flow traffic engine: N concurrent flows through one shared host
   pair, with connection churn and percentile latency reporting.

   Every other harness in the repo drives exactly one client/server pair,
   which is precisely the situation where the paper's §2.2 demux
   optimizations look free: the one-entry map cache always hits and the
   non-empty-bucket list has one entry.  This engine populates the demux
   maps with many live connections and keeps them churning
   (establish/teardown), so the cache hit rate, chain-compare counts and
   traversal costs become measurable functions of the active-flow count —
   the serving-system view of §2.2's conditional-inlining premise.

   Like Soak, cells run the protocol stacks standalone (no machine model):
   protocol actions cost zero simulated CPU, so a cell costs milliseconds
   of wall clock and the latency numbers isolate wire + timer + protocol
   *sequencing* effects.  Everything is event-driven inside one
   deterministic [Ns.Sim] queue; sweeps fan cells over [Util.Dpool] and
   reassemble in submission order, so output is bit-identical at any
   [--jobs]. *)

module Util = Protolat_util
module Xk = Protolat_xkernel
module Ns = Protolat_netsim
module T = Protolat_tcpip
module R = Protolat_rpc
module Obs = Protolat_obs
module Msg = Xk.Msg

(* ----- workload ----------------------------------------------------------- *)

type arrival =
  | Closed_loop of { think_us : float }
  | Open_loop of { interarrival_us : float }

type workload = {
  arrival : arrival;
  req_bytes : int;
  resp_bytes : int;
  requests_per_flow : int;
  conn_lifetime : int option;
}

let default_workload =
  { arrival = Closed_loop { think_us = 200.0 };
    req_bytes = 64;
    resp_bytes = 256;
    requests_per_flow = 32;
    conn_lifetime = Some 8 }

let arrival_name = function
  | Closed_loop { think_us } -> Printf.sprintf "closed(think=%.0fus)" think_us
  | Open_loop { interarrival_us } ->
    Printf.sprintf "open(ia=%.0fus)" interarrival_us

(* truncated exponential draw: deterministic per-flow stream, bounded so a
   single unlucky draw cannot dominate a cell's runtime *)
let draw_exp rng mean =
  if mean <= 0.0 then 0.0
  else
    let u = Util.Rng.float rng 1.0 in
    Float.min (8.0 *. mean) (-.mean *. log (1.0 -. u))

let draw_lifetime rng = function
  | None -> max_int
  | Some n when n <= 1 -> 1
  | Some n -> 1 + Util.Rng.int rng ((2 * n) - 1)

(* ----- results ------------------------------------------------------------ *)

type map_stats = {
  resolves : int;
  cache_hits : int;
  key_compares : int;
  buckets_scanned : int;
  nonempty : int;  (** residual non-empty-bucket list length *)
}

let hit_rate m =
  if m.resolves = 0 then 1.0
  else float_of_int m.cache_hits /. float_of_int m.resolves

let compares_per_resolve m =
  if m.resolves = 0 then 0.0
  else float_of_int m.key_compares /. float_of_int m.resolves

type cell = {
  stack : Engine.stack_kind;
  flows : int;
  seed : int;
  requests : int;  (** completed request/response exchanges *)
  conns : int;  (** connections opened (TCP; = [flows] for RPC) *)
  reconnects : int;  (** supervisor-forced reopenings (chaos runs) *)
  retransmits : int;
  lat : Util.Stats.Hist.digest;  (** aggregate over every exchange *)
  per_flow : Util.Stats.Hist.digest array;
  server_map : map_stats;
  timer_high_water : int;  (** peak pending timers, worse host *)
  sweeps : int;  (** PCB housekeeping walks (TCP only) *)
  drained : bool;  (** no leaked sessions, timers or sim events *)
  violations : string list;  (** broken conservation laws at quiesce *)
  metrics : Obs.Metrics.t;  (** the pair's registry incl. [mflow.*] *)
}

(* ----- per-flow client state ---------------------------------------------- *)

type flow = {
  fid : int;
  rng : Util.Rng.t;
  inflight : float Queue.t;  (** send timestamps of outstanding requests *)
  mutable conn : T.Tcp.session option;
  mutable conn_requests : int;  (** exchanges completed on current conn *)
  mutable lifetime : int;  (** exchanges this conn carries before churn *)
  mutable conn_idx : int;  (** connections opened so far (port allocator) *)
  mutable sent : int;
  mutable completed : int;
  mutable resp_acc : int;  (** bytes accumulated toward the head response *)
  mutable backlog : int;  (** open-loop arrivals awaiting an established conn *)
  mutable scheduled : int;  (** open-loop arrivals scheduled *)
  lat : Util.Stats.Hist.t;  (** streaming latency histogram, O(1) memory *)
  mutable done_ : bool;  (** quota reached and counted exactly once *)
  mutable last_progress_us : float;  (** last send or completed exchange *)
}

let server_port = 7000

let client_port_base = 10_000

(* ----- the shared cell ---------------------------------------------------- *)

(* What both stacks' workloads share: the pair's simulator and hosts, the
   flows, and the latency histogram every completed exchange feeds. *)
type ctx = {
  sim : Ns.Sim.t;
  cenv : Ns.Host_env.t;
  senv : Ns.Host_env.t;
  wl : workload;
  nflows : int;
  fl : flow array;
  flows_done : int ref;
  lat_hist : Obs.Metrics.histogram;
  iv : Invariant.t;  (** the cell's violations *)
}

(* What only a stack's workload can report, read once the queue ran dry:
   whether its sessions drained too, and its own counters. *)
type tally = {
  drained : bool;
  conns : int;
  reconnects : int;
  retransmits : int;
  sweeps : int;
  server_map : map_stats;
}

let map_stats (mc : Xk.Map.counters) nonempty =
  { resolves = mc.Xk.Map.resolves;
    cache_hits = mc.Xk.Map.cache_hits;
    key_compares = mc.Xk.Map.key_compares;
    buckets_scanned = mc.Xk.Map.buckets_scanned;
    nonempty }

let finish_flow c f =
  if not f.done_ then begin
    f.done_ <- true;
    incr c.flows_done
  end

(* one completed exchange, [v] µs after its request left *)
let record c f v =
  Util.Stats.Hist.add f.lat v;
  Obs.Metrics.observe c.lat_hist v;
  f.completed <- f.completed + 1

(* open-loop arrivals tick independently of the response stream *)
let rec schedule_arrival c f ia arrive =
  if f.scheduled < c.wl.requests_per_flow then begin
    f.scheduled <- f.scheduled + 1;
    ignore
      (Ns.Host_env.timeout c.cenv ~delay:(draw_exp f.rng ia) (fun () ->
           arrive f;
           schedule_arrival c f ia arrive))
  end

(* Start every flow, then drive until each finished its request quota.
   Past the deadline, record a [liveness.flows] violation naming each stuck
   flow and its state, then count the stuck flows as finished so that no
   harness timer outlives the run. *)
let drive c ~start ~conn_desc =
  Array.iter
    (fun f -> if c.wl.requests_per_flow <= 0 then finish_flow c f else start f)
    c.fl;
  let deadline =
    Ns.Sim.now c.sim
    +. 10.0e6
    +. (float_of_int (c.nflows * max 1 c.wl.requests_per_flow) *. 5_000.0)
  in
  Engine.pump c.sim ~slice_us:2_000.0 ~deadline (fun () ->
      !(c.flows_done) >= c.nflows);
  if !(c.flows_done) < c.nflows then begin
    let stuck =
      Array.to_list c.fl
      |> List.filter (fun f -> not f.done_)
      |> List.map (fun f ->
             Printf.sprintf
               "\n  flow %d stuck at %d/%d exchanges (%d sent, %d inflight, \
                conn %s)"
               f.fid f.completed c.wl.requests_per_flow f.sent
               (Queue.length f.inflight) (conn_desc f))
    in
    Invariant.report c.iv ~at_us:(Ns.Sim.now c.sim) ~name:"liveness.flows"
      ~detail:
        (Printf.sprintf
           "only %d of %d flows finished by the deadline (pending timers: \
            client=%d server=%d)%s"
           !(c.flows_done) c.nflows
           (Xk.Event.pending c.cenv.Ns.Host_env.events)
           (Xk.Event.pending c.senv.Ns.Host_env.events)
           (String.concat "" stuck));
    Array.iter (finish_flow c) c.fl
  end

(* run the event queue dry: no sim event and no host timer may be left *)
let quiesce c =
  ignore (Ns.Sim.run c.sim);
  Ns.Sim.pending c.sim = 0
  && Xk.Event.pending c.cenv.Ns.Host_env.events = 0
  && Xk.Event.pending c.senv.Ns.Host_env.events = 0

(* ----- TCP workload ------------------------------------------------------- *)

let establish_poll_us = 100.0

let sweep_interval_us = 2_000.0

let tcp_workload ?chaos (net : T.Stack.net) (pair : T.Stack.pair) c =
  let sim = c.sim and cenv = c.cenv and senv = c.senv and wl = c.wl in
  let ctcp = pair.client.T.Stack.tcp and stcp = pair.server.T.Stack.tcp in
  let server_ip = pair.server.T.Stack.ip_addr in
  let req_payload = Bytes.make (max 1 wl.req_bytes) 'q' in
  let resp_payload = Bytes.make (max 1 wl.resp_bytes) 'r' in
  (* server: byte-counting echo responder — every [req_bytes] received on a
     session answers with [resp_bytes].  Sessions are keyed by their TCB
     key, not the session value (which is cyclic). *)
  let srv_acc : (string, int ref) Hashtbl.t = Hashtbl.create 64 in
  let install_server () =
    T.Tcp.listen stcp ~port:server_port ~receive:(fun s data ->
        T.Tcp.set_nodelay s true;
        let key = T.Tcb.key_of (T.Tcp.tcb s) in
        let acc =
          match Hashtbl.find_opt srv_acc key with
          | Some r -> r
          | None ->
            let r = ref 0 in
            Hashtbl.replace srv_acc key r;
            r
        in
        acc := !acc + Bytes.length data;
        while !acc >= wl.req_bytes do
          acc := !acc - wl.req_bytes;
          T.Tcp.send s resp_payload
        done)
  in
  install_server ();
  (* server housekeeping: the tcp_slowtimo-style sweep that reaps sessions
     a departed client left in Close_wait.  It runs over the whole PCB map
     via the §2.2.1 non-empty-bucket list, so under churn it is also the
     traversal load the paper's lazy list exists for. *)
  let sweeps = ref 0 in
  let sweeping = ref true in
  let rec sweep_tick () =
    if !sweeping then begin
      incr sweeps;
      ignore (T.Tcp.sweep stcp);
      ignore (Ns.Host_env.timeout senv ~delay:sweep_interval_us sweep_tick)
    end
  in
  let arm_sweep () =
    ignore (Ns.Host_env.timeout senv ~delay:sweep_interval_us sweep_tick)
  in
  arm_sweep ();
  (* a server crash wipes the listener and the sweep timer with the rest
     of the host's volatile state; the restart hook rebuilds both *)
  let chaos_status =
    match chaos with
    | None -> None
    | Some sched ->
      Some
        (Chaos.inject net
           ~on_restart:(fun h ->
             match h with
             | Chaos.Server ->
               install_server ();
               arm_sweep ()
             | Chaos.Client -> ())
           sched)
  in
  let conns_opened = ref 0 in
  let reconnects = ref 0 in
  (* a crash can abort the current connection under a callback's feet, so
     every callback checks it still speaks for the flow's live session *)
  let conn_current f s =
    match f.conn with Some cur -> cur == s | None -> false
  in
  let send_request f s =
    f.sent <- f.sent + 1;
    f.last_progress_us <- Ns.Sim.now sim;
    Queue.push (Ns.Sim.now sim) f.inflight;
    Ns.Host_env.phase cenv "mflow_send" (fun () -> T.Tcp.send s req_payload)
  in
  let rec open_conn f =
    (* disjoint port spaces per flow: reopened connections get fresh ports
       so old Time_wait incarnations never collide *)
    let port = client_port_base + (f.conn_idx * c.nflows) + f.fid in
    f.conn_idx <- f.conn_idx + 1;
    incr conns_opened;
    f.conn_requests <- 0;
    f.lifetime <- draw_lifetime f.rng wl.conn_lifetime;
    let s =
      T.Tcp.connect ctcp ~local_port:port ~remote_ip:server_ip
        ~remote_port:server_port ~receive:(client_receive f)
    in
    f.conn <- Some s;
    wait_established f s
  and wait_established f s =
    (* the application-level accept poll: flows sequence their own
       handshakes through the shared event queue *)
    ignore
      (Ns.Host_env.timeout cenv ~delay:establish_poll_us (fun () ->
           if conn_current f s then
             match T.Tcp.state s with
             | T.Tcb.Established ->
               T.Tcp.set_nodelay s true;
               conn_ready f s
             | T.Tcb.Closed -> (
               match chaos_status with
               | None -> failwith "Mflow: handshake failed"
               | Some _ ->
                 (* SYN exhausted against a crashed or partitioned peer:
                    drop the carcass, the supervisor reopens *)
                 f.conn <- None)
             | _ -> wait_established f s))
  and conn_ready f s =
    match wl.arrival with
    | Closed_loop _ -> send_request f s
    | Open_loop _ ->
      let burst = f.backlog in
      f.backlog <- 0;
      for _ = 1 to burst do
        send_request f s
      done
  and client_receive f s data =
    if conn_current f s then begin
      f.resp_acc <- f.resp_acc + Bytes.length data;
      while f.resp_acc >= wl.resp_bytes && not (Queue.is_empty f.inflight) do
        f.resp_acc <- f.resp_acc - wl.resp_bytes;
        let t0 = Queue.pop f.inflight in
        record c f (Ns.Sim.now sim -. t0);
        f.conn_requests <- f.conn_requests + 1;
        f.last_progress_us <- Ns.Sim.now sim;
        after_response f s
      done
    end
  and after_response f s =
    if f.completed >= wl.requests_per_flow then begin
      T.Tcp.close s;
      f.conn <- None;
      finish_flow c f
    end
    else if f.conn_requests >= f.lifetime && Queue.is_empty f.inflight then begin
      (* connection churn: tear down at a quiescent point, reopen fresh *)
      T.Tcp.close s;
      f.conn <- None;
      open_conn f
    end
    else
      match wl.arrival with
      | Closed_loop { think_us } ->
        let delay = draw_exp f.rng think_us in
        if delay <= 0.0 then send_request f s
        else
          ignore
            (Ns.Host_env.timeout cenv ~delay (fun () ->
                 match f.conn with
                 | Some s when T.Tcp.state s = T.Tcb.Established ->
                   send_request f s
                 | _ -> ()))
      | Open_loop _ -> ()
  in
  (* chaos supervision: a client crash kills the think and handshake
     timers along with every session, leaving its flows permanently idle.
     The supervisor runs on the raw simulator — outside any host, so no
     crash can cancel it — and re-drives any flow that has made no
     progress for [stall_us] once both hosts are powered again.  Cleared
     in-flight requests are simply resent: the workload is an idempotent
     echo, so the latency sample just keeps its original send time. *)
  (match chaos_status with
  | None -> ()
  | Some st ->
    let stall_us = 50_000.0 in
    let supervise_period_us = 5_000.0 in
    let rec supervise () =
      if !(c.flows_done) < c.nflows then begin
        let now = Ns.Sim.now sim in
        if
          not
            (Chaos.is_down st Chaos.Client || Chaos.is_down st Chaos.Server)
        then
          Array.iter
            (fun f ->
              if (not f.done_) && now -. f.last_progress_us > stall_us
              then begin
                (match f.conn with
                | Some s when T.Tcp.state s <> T.Tcb.Closed -> T.Tcp.close s
                | _ -> ());
                f.conn <- None;
                Queue.clear f.inflight;
                f.resp_acc <- 0;
                f.last_progress_us <- now;
                incr reconnects;
                open_conn f
              end)
            c.fl;
        Ns.Sim.schedule sim ~delay:supervise_period_us supervise
      end
    in
    Ns.Sim.schedule sim ~delay:supervise_period_us supervise);
  drive c
    ~start:(fun f ->
      open_conn f;
      match wl.arrival with
      | Open_loop { interarrival_us } ->
        schedule_arrival c f interarrival_us (fun f ->
            match f.conn with
            | Some s when T.Tcp.state s = T.Tcb.Established -> send_request f s
            | _ -> f.backlog <- f.backlog + 1)
      | Closed_loop _ -> ())
    ~conn_desc:(fun f ->
      match f.conn with
      | None -> "none"
      | Some s -> T.Tcb.state_string (T.Tcp.state s));
  (* teardown: reap both PCB maps (a time window, not an iteration count:
     under heavy fan-in the last FIN exchanges can sit behind RTOs of
     seconds), stop the server's sweep, then let the queue run dry *)
  T.Stack.teardown pair;
  sweeping := false;
  let drained =
    quiesce c && T.Tcp.session_count ctcp = 0 && T.Tcp.session_count stcp = 0
  in
  ({ drained;
     conns = !conns_opened;
     reconnects = !reconnects;
     retransmits = T.Tcp.retransmits ctcp + T.Tcp.retransmits stcp;
     sweeps = !sweeps;
     server_map =
       map_stats (T.Tcp.map_counters stcp) (T.Tcp.map_nonempty_buckets stcp) }
    : tally)

(* ----- RPC workload ------------------------------------------------------- *)

(* N MSELECT clients calling through the shared VCHAN pool: the CHAN
   channel map takes the role of the TCP PCB map.  Channels are pooled
   rather than torn down, so churn here is pool growth + interleaving, not
   connection teardown. *)
let rpc_workload _net (pair : R.Rstack.pair) c =
  let wl = c.wl in
  let resp_payload = Bytes.make (max 1 wl.resp_bytes) 'r' in
  for f = 0 to c.nflows - 1 do
    R.Mselect.register pair.server.R.Rstack.mselect ~client:f
      (fun _data ~reply -> reply resp_payload)
  done;
  let rec issue f =
    f.sent <- f.sent + 1;
    let t0 = Ns.Sim.now c.sim in
    let msg = Msg.alloc c.cenv.Ns.Host_env.simmem ~headroom:64 0 in
    Msg.set_payload msg (Bytes.make (max 1 wl.req_bytes) 'q');
    R.Mselect.call pair.client.R.Rstack.mselect ~client:f.fid msg
      ~reply:(fun _ ->
        record c f (Ns.Sim.now c.sim -. t0);
        if f.completed >= wl.requests_per_flow then finish_flow c f
        else
          match wl.arrival with
          | Closed_loop { think_us } ->
            let delay = draw_exp f.rng think_us in
            if delay <= 0.0 then issue f
            else ignore (Ns.Host_env.timeout c.cenv ~delay (fun () -> issue f))
          | Open_loop _ -> ())
  in
  drive c
    ~start:(fun f ->
      match wl.arrival with
      | Closed_loop _ -> issue f
      | Open_loop { interarrival_us } ->
        schedule_arrival c f interarrival_us issue)
    ~conn_desc:(fun _ -> "rpc channel");
  let drained = quiesce c in
  let cchan = pair.client.R.Rstack.chan and schan = pair.server.R.Rstack.chan in
  ({ drained;
     conns = R.Chan.map_size cchan;
     reconnects = 0;
     retransmits = R.Chan.request_retransmits cchan;
     sweeps = 0;
     server_map =
       map_stats (R.Chan.map_counters schan) (R.Chan.map_nonempty_buckets schan)
   }
    : tally)

(* ----- cell assembly ------------------------------------------------------ *)

let run_cell ?(workload = default_workload) ?chaos ~flows:nflows
    (spec : Engine.Spec.t) =
  let config = spec.Engine.Spec.config
  and seed = spec.Engine.Spec.seed
  and topology = spec.Engine.Spec.topology in
  if Ns.Topology.hosts topology <> 2 then
    invalid_arg "Mflow: spec topology must have exactly 2 hosts";
  (match (chaos, spec.Engine.Spec.stack) with
  | Some _, Engine.Rpc ->
    (* RPC channels are pooled, not torn down; host-lifecycle faults have
       no reconnect story there yet *)
    invalid_arg "Mflow: chaos supports the TCP stack only"
  | _ -> ());
  if nflows <= 0 then invalid_arg "Mflow: flows must be positive";
  (match (chaos, workload.arrival) with
  | Some _, Open_loop _ ->
    (* an open-loop arrival stream has no response to pace itself on, so a
       crash silently sheds its backlog instead of recovering it *)
    invalid_arg "Mflow: chaos requires a closed-loop workload"
  | _ -> ());
  let on_stack (type h) (module S : Engine.STACK with type host = h) run =
    let net =
      S.make_net ~opts_for:(S.opts_for config.Config.opts) ~topology ()
    in
    let pair = T.Stack.pair_of_net net in
    let metrics = pair.T.Stack.metrics in
    let flow_of i =
      { fid = i;
        rng = Util.Rng.create (seed + (1_000_003 * i));
        inflight = Queue.create ();
        conn = None;
        conn_requests = 0;
        lifetime = 0;
        conn_idx = 0;
        sent = 0;
        completed = 0;
        resp_acc = 0;
        backlog = 0;
        scheduled = 0;
        lat = Util.Stats.Hist.create ();
        done_ = false;
        last_progress_us = 0.0 }
    in
    let c =
      { sim = pair.T.Stack.sim;
        cenv = S.env pair.T.Stack.client;
        senv = S.env pair.T.Stack.server;
        wl = workload;
        nflows;
        fl = Array.init nflows flow_of;
        flows_done = ref 0;
        lat_hist =
          Obs.Metrics.histogram
            (Obs.Metrics.scoped metrics "mflow")
            ~help:"request-response latency" "lat_us";
        iv = Invariant.create () }
    in
    let (t : tally) = run net pair c in
    (* quiesce-time audit: any broken metrics conservation law becomes a
       cell violation *)
    Invariant.conservation c.iv ~at_us:(Ns.Sim.now c.sim) metrics;
    (* flow histograms merge in flow order: exact counts, order-independent *)
    let merged =
      Array.fold_left
        (fun acc f -> Util.Stats.Hist.merge acc f.lat)
        (Util.Stats.Hist.create ())
        c.fl
    in
    { stack = spec.Engine.Spec.stack;
      flows = nflows;
      seed;
      requests = Array.fold_left (fun a f -> a + f.completed) 0 c.fl;
      conns = t.conns;
      reconnects = t.reconnects;
      retransmits = t.retransmits;
      lat = Util.Stats.Hist.digest merged;
      per_flow = Array.map (fun f -> Util.Stats.Hist.digest f.lat) c.fl;
      server_map = t.server_map;
      timer_high_water =
        max
          (Xk.Event.high_water c.cenv.Ns.Host_env.events)
          (Xk.Event.high_water c.senv.Ns.Host_env.events);
      sweeps = t.sweeps;
      drained = t.drained;
      violations =
        List.map Invariant.render_violation (Invariant.violations c.iv);
      metrics }
  in
  let cell =
    match spec.Engine.Spec.stack with
    | Engine.Tcpip -> on_stack Engine.tcpip (tcp_workload ?chaos)
    | Engine.Rpc -> on_stack Engine.rpc rpc_workload
  in
  (* register the cell's headline numbers in the pair's metrics registry
     (the lat_us histogram itself is populated at record time) *)
  let mf = Obs.Metrics.scoped cell.metrics "mflow" in
  Obs.Metrics.add
    (Obs.Metrics.counter mf ~help:"completed exchanges" "requests")
    cell.requests;
  Obs.Metrics.add
    (Obs.Metrics.counter mf ~help:"connections opened" "conns_opened")
    cell.conns;
  Obs.Metrics.set
    (Obs.Metrics.gauge mf ~help:"peak pending timers (worse host)"
       "timer_high_water")
    (float_of_int cell.timer_high_water);
  Obs.Metrics.set
    (Obs.Metrics.gauge mf ~help:"server demux one-entry cache hit rate"
       "map_hit_rate")
    (hit_rate cell.server_map);
  cell

(* ----- sweep -------------------------------------------------------------- *)

type report = {
  rstack : Engine.stack_kind;
  rtopology : Ns.Topology.t;
  flow_counts : int list;
  seeds : int;
  workload : workload;
  cells : cell list;  (** ordered: flow counts major, seeds minor *)
}

(* distinct seed stream from Engine.sample_seed and Soak.seed_for *)
let seed_for base i = base + (i * 6007)

let sweep ?(flow_counts = [ 1; 8; 64 ]) ?(seeds = 2) ?jobs
    ?(workload = default_workload) (base : Engine.Spec.t) =
  if seeds <= 0 then invalid_arg "Mflow.sweep: seeds must be positive";
  let tasks =
    List.concat_map
      (fun n ->
        List.init seeds (fun i ->
            fun () ->
             run_cell ~workload ~flows:n
               (Engine.Spec.with_seed
                  (seed_for base.Engine.Spec.seed i)
                  base)))
      flow_counts
  in
  { rstack = base.Engine.Spec.stack;
    rtopology = base.Engine.Spec.topology;
    flow_counts;
    seeds;
    workload;
    cells = Util.Dpool.run ?jobs tasks }

(* mean across the seeds of one flow count *)
let summary t =
  List.map
    (fun n ->
      let cs = List.filter (fun c -> c.flows = n) t.cells in
      let k = float_of_int (List.length cs) in
      let mean f = List.fold_left (fun a c -> a +. f c) 0.0 cs /. k in
      ( n,
        ( mean (fun c -> c.lat.Util.Stats.Hist.p50),
          mean (fun c -> c.lat.Util.Stats.Hist.p99),
          mean (fun c -> hit_rate c.server_map),
          mean (fun c -> compares_per_resolve c.server_map) ) ))
    t.flow_counts

(* ----- rendering ---------------------------------------------------------- *)

let render t =
  let tbl =
    Util.Table.create
      ~title:
        (Printf.sprintf "Multi-flow scaling: %s, %s, %d seed%s"
           (Engine.stack_name t.rstack)
           (arrival_name t.workload.arrival)
           t.seeds
           (if t.seeds = 1 then "" else "s"))
      ~headers:
        [ "Flows"; "seed"; "p50 [us]"; "p90"; "p99"; "p99.9"; "max";
          "hit rate"; "cmp/res"; "scans"; "timers"; "conns"; "rexmt";
          "drained"; "ok" ]
  in
  let f1 = Util.Table.cell_f ~digits:1 in
  let f3 = Util.Table.cell_f ~digits:3 in
  List.iter
    (fun (c : cell) ->
      Util.Table.add_row tbl
        [ string_of_int c.flows; string_of_int c.seed;
          f1 c.lat.Util.Stats.Hist.p50; f1 c.lat.Util.Stats.Hist.p90;
          f1 c.lat.Util.Stats.Hist.p99; f1 c.lat.Util.Stats.Hist.p999;
          f1 c.lat.Util.Stats.Hist.max;
          f3 (hit_rate c.server_map);
          f1 (compares_per_resolve c.server_map);
          string_of_int c.server_map.buckets_scanned;
          string_of_int c.timer_high_water; string_of_int c.conns;
          string_of_int c.retransmits; (if c.drained then "yes" else "NO");
          (if c.violations = [] then "yes" else "NO") ])
    t.cells;
  let b = Buffer.create 256 in
  Buffer.add_string b (Util.Table.render tbl);
  List.iter
    (fun (c : cell) ->
      List.iter
        (fun v ->
          Buffer.add_string b
            (Printf.sprintf "violation (flows=%d seed=%d): %s\n" c.flows
               c.seed v))
        c.violations)
    t.cells;
  Buffer.contents b

let passed t =
  List.for_all (fun (c : cell) -> c.drained && c.violations = []) t.cells

(* ----- JSON export -------------------------------------------------------- *)

let to_json t =
  let us x = Obs.Json.Out.Fixed (3, x) in
  let cell_json (c : cell) =
    let q = c.lat in
    let worst_flow_p99 =
      Array.fold_left
        (fun acc d -> Float.max acc d.Util.Stats.Hist.p99)
        0.0 c.per_flow
    in
    Obs.Json.Out.(
      Obj
        [ ("flows", Int c.flows); ("seed", Int c.seed);
          ("requests", Int c.requests); ("conns", Int c.conns);
          ("p50_us", us q.Util.Stats.Hist.p50);
          ("p90_us", us q.Util.Stats.Hist.p90);
          ("p99_us", us q.Util.Stats.Hist.p99);
          ("p999_us", us q.Util.Stats.Hist.p999);
          ("max_us", us q.Util.Stats.Hist.max);
          ("worst_flow_p99_us", us worst_flow_p99);
          ("map_hit_rate", Fixed (6, hit_rate c.server_map));
          ( "key_compares_per_resolve",
            Fixed (4, compares_per_resolve c.server_map) );
          ("buckets_scanned", Int c.server_map.buckets_scanned);
          ("nonempty_buckets", Int c.server_map.nonempty);
          ("timer_high_water", Int c.timer_high_water);
          ("sweeps", Int c.sweeps); ("retransmits", Int c.retransmits);
          ("reconnects", Int c.reconnects); ("drained", Bool c.drained);
          ("violations", Arr (List.map (fun v -> Str v) c.violations)) ])
  in
  let summary_json (n, (p50, p99, hit, cmp)) =
    Obs.Json.Out.(
      Obj
        [ ("flows", Int n); ("p50_us", us p50); ("p99_us", us p99);
          ("map_hit_rate", Fixed (6, hit));
          ("key_compares_per_resolve", Fixed (4, cmp)) ])
  in
  let wl = t.workload in
  Obs.Json.Out.(
    to_string Report
      (document ~kind:"mflow"
         [ ("stack", Str (if t.rstack = Engine.Tcpip then "tcpip" else "rpc"));
           ("topology", Str (Ns.Topology.to_string t.rtopology));
           ("seeds", Int t.seeds);
           ("flow_counts", Arr (List.map (fun n -> Int n) t.flow_counts));
           ( "workload",
             Obj
               [ ("arrival", Str (arrival_name wl.arrival));
                 ("req_bytes", Int wl.req_bytes);
                 ("resp_bytes", Int wl.resp_bytes);
                 ("requests_per_flow", Int wl.requests_per_flow);
                 ( "conn_lifetime",
                   match wl.conn_lifetime with None -> Null | Some n -> Int n )
               ] );
           ("cells", Rows (List.map cell_json t.cells));
           ("summary", Rows (List.map summary_json (summary t))) ]))

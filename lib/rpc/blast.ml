module Xk = Protolat_xkernel
module Ns = Protolat_netsim
module Obs = Protolat_obs
module Meter = Xk.Meter
module Msg = Xk.Msg
module Cksum = Protolat_tcpip.Cksum_meter

(* meter sites, interned at module initialisation *)
let s_blast_demux_map = Xk.Demux.caller "blast_demux"
let s_blast_push = Meter.Site.fn "blast_push"
let s_blast_push_fragchk = Meter.Site.block "blast_push" "fragchk"
let s_blast_push_dofrag = Meter.Site.cold "blast_push" "dofrag"
let s_blast_push_hdr = Meter.Site.block "blast_push" "hdr"
let s_blast_push_hdr_0 = Meter.Site.call "blast_push" "hdr" 0
let s_blast_push_send = Meter.Site.block "blast_push" "send"
let s_blast_push_send_0 = Meter.Site.call "blast_push" "send" 0
let s_blast_demux_deliver = Meter.Site.block "blast_demux" "deliver"
let s_blast_demux_deliver_0 = Meter.Site.call "blast_demux" "deliver" 0
let s_blast_demux = Meter.Site.fn "blast_demux"
let s_blast_demux_parse = Meter.Site.block "blast_demux" "parse"
let s_blast_demux_parse_0 = Meter.Site.call "blast_demux" "parse" 0
let s_blast_demux_cksum_bad = Meter.Site.cold "blast_demux" "cksum_bad"
let s_blast_demux_map_cache = Meter.Site.block "blast_demux" "map_cache"
let s_blast_demux_reass = Meter.Site.cold "blast_demux" "reass"
let s_blast_demux_sendnack = Meter.Site.cold "blast_demux" "sendnack"

type partial = {
  frags : bytes option array;
  mutable have : int;
  from : int;
  msg_id : int;
  mutable nack_timer : Xk.Event.handle;
  mutable nack_tries : int;
}

type t = {
  env : Ns.Host_env.t;
  netdev : Ns.Netdev.t;
  ethertype : int;
  inline : bool;
  frag_size : int;
  partials : partial Xk.Map.t;
  completed : (string, unit) Hashtbl.t;
      (** reassemblies already delivered, so late duplicate fragments do
          not recreate a partial that can never complete *)
  mutable upper : src:int -> Msg.t -> unit;
  mutable next_msg_id : int;
  mutable last_sent : (int * int * bytes array) option;
      (** (dst, msg_id, fragments) retained for selective retransmit *)
  c_fragmented : Obs.Metrics.counter;
  c_nacks : Obs.Metrics.counter;
  c_retransmissions : Obs.Metrics.counter;
  c_cksum_drops : Obs.Metrics.counter;
  c_late_fragments : Obs.Metrics.counter;
  c_abandoned : Obs.Metrics.counter;
  cksum : Cksum.counters;
  mutable short_drops : int;  (** frames shorter than a BLAST header *)
}

let meter t = t.env.Ns.Host_env.meter

let pkey ~src ~msg_id = Printf.sprintf "%x:%x" src msg_id

(* the receiver re-NACKs on a timer so a lost last fragment (or a lost
   NACK) cannot stall reassembly forever *)
let nack_timeout_us = 4000.0

let max_nack_tries = 8

(* checksum covers the BLAST header (with its cksum field zeroed) plus
   the payload, so header corruption is detected too *)
let header_sum hdr =
  Protolat_tcpip.Checksum.sum hdr 0 Hdrs.Blast.size

let send_fragment t ~dst ~kind ~msg_id ~frag_ix ~frag_count payload =
  let msg = Msg.alloc t.env.Ns.Host_env.simmem ~headroom:64 0 in
  Msg.set_payload msg payload;
  let hdr =
    { Hdrs.Blast.kind;
      msg_id;
      frag_ix;
      frag_count;
      frag_len = Bytes.length payload }
  in
  let initial = header_sum (Hdrs.Blast.to_bytes hdr) in
  let cksum =
    Protolat_tcpip.Checksum.compute ~initial payload 0 (Bytes.length payload)
  in
  Msg.push msg (Hdrs.Blast.to_bytes ~cksum hdr);
  Ns.Netdev.send t.netdev ~dst ~ethertype:t.ethertype msg

let push t ~dst msg =
  let m = meter t in
  m.Meter.enter s_blast_push;
  m.Meter.read (Msg.sim_addr msg) 16;
  m.Meter.block s_blast_push_fragchk;
  let len = Msg.len msg in
  let msg_id = t.next_msg_id in
  t.next_msg_id <- t.next_msg_id + 1;
  let need_frag = len > t.frag_size in
  m.Meter.cold ~triggered:need_frag s_blast_push_dofrag;
  if not need_frag then begin
    m.Meter.write (Msg.sim_addr msg) Hdrs.Blast.size;
    m.Meter.block s_blast_push_hdr;
    m.Meter.call s_blast_push_hdr_0;
    let hdr =
      { Hdrs.Blast.kind = Hdrs.Blast.Data;
        msg_id;
        frag_ix = 0;
        frag_count = 1;
        frag_len = len }
    in
    let initial = header_sum (Hdrs.Blast.to_bytes hdr) in
    let cksum =
      Cksum.compute m ~counters:t.cksum ~initial ~sim_base:(Msg.sim_addr msg)
        (Msg.contents msg) 0 len
    in
    Msg.push msg (Hdrs.Blast.to_bytes ~cksum hdr);
    m.Meter.block s_blast_push_send;
    m.Meter.call s_blast_push_send_0;
    Ns.Netdev.send t.netdev ~dst ~ethertype:t.ethertype msg
  end
  else begin
    (* outlined fragmentation path *)
    Obs.Metrics.inc t.c_fragmented;
    let data = Msg.contents msg in
    let count = (len + t.frag_size - 1) / t.frag_size in
    let frags =
      Array.init count (fun i ->
          let off = i * t.frag_size in
          Bytes.sub data off (min t.frag_size (len - off)))
    in
    t.last_sent <- Some (dst, msg_id, frags);
    Array.iteri
      (fun i payload ->
        send_fragment t ~dst ~kind:Hdrs.Blast.Data ~msg_id ~frag_ix:i
          ~frag_count:count payload)
      frags
  end;
  m.Meter.leave s_blast_push

(* NACK payload: a byte per missing fragment index (bounded, simple). *)
let send_nack t ~dst ~msg_id missing =
  Obs.Metrics.inc t.c_nacks;
  Ns.Host_env.trace_instant t.env ~cat:"blast" ~name:"nack"
    ~a0:(List.length missing);
  let payload = Bytes.create (List.length missing) in
  List.iteri (fun i ix -> Bytes.set payload i (Char.chr (ix land 0xFF))) missing;
  send_fragment t ~dst ~kind:Hdrs.Blast.Nack ~msg_id ~frag_ix:0
    ~frag_count:1 payload

let handle_nack t ~src hdr payload =
  match t.last_sent with
  | Some (dst, msg_id, frags)
    when msg_id = hdr.Hdrs.Blast.msg_id && dst = src ->
    if Bytes.length payload > 0 then
      (* one new generation per NACK burst, however many fragments it asks
         to resend *)
      Ns.Host_env.mark t.env Obs.Span.retry;
    Bytes.iter
      (fun c ->
        let ix = Char.code c in
        if ix < Array.length frags then begin
          Obs.Metrics.inc t.c_retransmissions;
          Ns.Host_env.trace_instant t.env ~cat:"blast" ~name:"frag_rexmt"
            ~a0:ix;
          send_fragment t ~dst ~kind:Hdrs.Blast.Data ~msg_id ~frag_ix:ix
            ~frag_count:(Array.length frags) frags.(ix)
        end)
      payload
  | _ -> ()

let deliver_up t ~src msg =
  let m = meter t in
  m.Meter.block s_blast_demux_deliver;
  m.Meter.call s_blast_demux_deliver_0;
  t.upper ~src msg

let missing_of partial =
  let missing = ref [] in
  Array.iteri
    (fun i f -> if f = None then missing := i :: !missing)
    partial.frags;
  List.rev !missing

let cancel_nack_timer t partial =
  ignore (Xk.Event.cancel t.env.Ns.Host_env.events partial.nack_timer);
  partial.nack_timer <- Xk.Event.none

let rec arm_nack_timer t ~key partial =
  partial.nack_timer <-
    Ns.Host_env.timeout t.env ~delay:nack_timeout_us (fun () ->
        match Xk.Map.resolve t.partials key with
        | Some p when p == partial ->
          if partial.nack_tries >= max_nack_tries then begin
            (* give up: drop the partial so its slot is reclaimed *)
            ignore (Xk.Map.unbind t.partials key);
            partial.nack_timer <- Xk.Event.none;
            Obs.Metrics.inc t.c_abandoned
          end
          else begin
            partial.nack_tries <- partial.nack_tries + 1;
            Ns.Host_env.phase t.env "blast_nack" (fun () ->
                send_nack t ~dst:partial.from ~msg_id:partial.msg_id
                  (missing_of partial));
            arm_nack_timer t ~key partial
          end
        | _ -> partial.nack_timer <- Xk.Event.none)

let demux_frame t ~src msg =
  let m = meter t in
  m.Meter.enter s_blast_demux;
  m.Meter.read (Msg.sim_addr msg) Hdrs.Blast.size;
  m.Meter.block s_blast_demux_parse;
  let raw = Msg.pop msg Hdrs.Blast.size in
  let hdr = Hdrs.Blast.of_bytes raw in
  m.Meter.call s_blast_demux_parse_0;
  let hdr0 = Bytes.sub raw 0 Hdrs.Blast.size in
  Bytes.set hdr0 12 '\000';
  Bytes.set hdr0 13 '\000';
  let computed =
    Cksum.compute m ~counters:t.cksum ~initial:(header_sum hdr0)
      ~sim_base:(Msg.sim_addr msg) (Msg.contents msg) 0 (Msg.len msg)
  in
  let bad = computed <> Hdrs.Blast.cksum_of raw in
  m.Meter.cold ~triggered:bad s_blast_demux_cksum_bad;
  if bad then begin
    Obs.Metrics.inc t.c_cksum_drops;
    Ns.Host_env.trace_instant t.env ~cat:"blast" ~name:"cksum_drop"
      ~a0:(Msg.len msg)
  end
  else begin
    match hdr.Hdrs.Blast.kind with
    | Hdrs.Blast.Nack ->
      m.Meter.block s_blast_demux_map_cache;
      m.Meter.cold ~triggered:false s_blast_demux_reass;
      m.Meter.cold ~triggered:true s_blast_demux_sendnack;
      handle_nack t ~src hdr (Msg.contents msg)
    | Hdrs.Blast.Data when hdr.Hdrs.Blast.frag_count = 1 ->
      (* hot path: single fragment, empty partial-message set test *)
      m.Meter.block s_blast_demux_map_cache;
      m.Meter.cold ~triggered:false s_blast_demux_reass;
      m.Meter.cold ~triggered:false s_blast_demux_sendnack;
      deliver_up t ~src msg
    | Hdrs.Blast.Data ->
      let key = pkey ~src ~msg_id:hdr.Hdrs.Blast.msg_id in
      if Hashtbl.mem t.completed key then begin
        (* late duplicate of an already-delivered reassembly *)
        Obs.Metrics.inc t.c_late_fragments;
        m.Meter.cold ~triggered:false s_blast_demux_reass;
        m.Meter.cold ~triggered:false s_blast_demux_sendnack
      end
      else begin
        let partial =
          match
            Xk.Demux.lookup m ~inline:t.inline ~caller:s_blast_demux_map
              t.partials key
          with
          | Some p -> p
          | None ->
            let p =
              { frags = Array.make hdr.Hdrs.Blast.frag_count None;
                have = 0;
                from = src;
                msg_id = hdr.Hdrs.Blast.msg_id;
                nack_timer = Xk.Event.none;
                nack_tries = 0 }
            in
            Xk.Map.bind t.partials key p;
            arm_nack_timer t ~key p;
            p
        in
        m.Meter.cold ~triggered:true s_blast_demux_reass;
        let ix = hdr.Hdrs.Blast.frag_ix in
        if ix < Array.length partial.frags && partial.frags.(ix) = None
        then begin
          partial.frags.(ix) <- Some (Msg.contents msg);
          partial.have <- partial.have + 1
        end;
        if partial.have = Array.length partial.frags then begin
          m.Meter.cold ~triggered:false s_blast_demux_sendnack;
          ignore (Xk.Map.unbind t.partials key);
          cancel_nack_timer t partial;
          Hashtbl.replace t.completed key ();
          let whole =
            Bytes.concat Bytes.empty
              (Array.to_list partial.frags
              |> List.map (function Some b -> b | None -> assert false))
          in
          let out = Msg.alloc t.env.Ns.Host_env.simmem ~headroom:64 0 in
          Msg.set_payload out whole;
          deliver_up t ~src out
        end
        else begin
          (* progress restarts the gap timer: a fragment proves the
             sender is still transmitting, so only a stall (or a hole
             at the end of the burst) should trigger recovery *)
          partial.nack_tries <- 0;
          cancel_nack_timer t partial;
          arm_nack_timer t ~key partial;
          (* if this was the last fragment index and we still have gaps,
             request the missing ones *)
          let last = ix = Array.length partial.frags - 1 in
          m.Meter.cold ~triggered:last s_blast_demux_sendnack;
          if last then
            send_nack t ~dst:src ~msg_id:hdr.Hdrs.Blast.msg_id
              (missing_of partial)
        end
      end
  end;
  m.Meter.leave s_blast_demux

(* a frame too short for a BLAST header is a counted drop, as in IP and
   TCP; it never reaches the metered parse *)
let demux t ~src msg =
  if Msg.len msg < Hdrs.Blast.size then t.short_drops <- t.short_drops + 1
  else demux_frame t ~src msg

let create env netdev ~ethertype ~map_cache_inline ?(frag_size = 1400) () =
  let c = Obs.Metrics.counter env.Ns.Host_env.metrics in
  let t =
    { env;
      netdev;
      ethertype;
      inline = map_cache_inline;
      frag_size;
      partials = Xk.Map.create ~buckets:32 ();
      completed = Hashtbl.create 64;
      upper = (fun ~src:_ _ -> ());
      next_msg_id = 1;
      last_sent = None;
      c_fragmented = c "blast.fragmented";
      c_nacks = c "blast.nacks";
      c_retransmissions = c "blast.retransmissions";
      c_cksum_drops = c "blast.cksum_drops";
      c_late_fragments = c "blast.late_fragments";
      c_abandoned = c "blast.abandoned";
      cksum = Cksum.counters env.Ns.Host_env.metrics;
      short_drops = 0 }
  in
  Ns.Netdev.register netdev ~ethertype (fun ~src msg -> demux t ~src msg);
  t

let set_upper t f = t.upper <- f

let messages_fragmented t = Obs.Metrics.value t.c_fragmented

let nacks_sent t = Obs.Metrics.value t.c_nacks

let retransmissions t = Obs.Metrics.value t.c_retransmissions

let cksum_drops t = Obs.Metrics.value t.c_cksum_drops

let short_drops t = t.short_drops

let late_fragments t = Obs.Metrics.value t.c_late_fragments

let abandoned t = Obs.Metrics.value t.c_abandoned

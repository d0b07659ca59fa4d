module Xk = Protolat_xkernel
module Obs = Protolat_obs
module Meter = Xk.Meter
module Msg = Xk.Msg

type config = {
  usc : bool;
  map_cache_inline : bool;
  refresh_shortcircuit : bool;
}

let improved_config =
  { usc = true; map_cache_inline = true; refresh_shortcircuit = true }

type t = {
  env : Host_env.t;
  lance : Lance.t;
  cfg : config;
  mac : int;
  handlers : (src:int -> Msg.t -> unit) Xk.Map.t;
  arp : (int, unit) Hashtbl.t;
  pool : Xk.Pool.t;
  tx_backlog : Ether.frame Queue.t;
      (* frames that found the tx ring full, drained from tx_intr *)
  mutable frames_sent : int;
  mutable frames_received : int;
  mutable tx_ring_full_events : int;
  mutable rx_desc_errors : int;
}

(* the text of [Printf.sprintf "%04x"] *)
let etk ethertype = Protolat_util.Hexkey.to_string ~width:4 ethertype

let pool_put_metered t msg =
  let m = t.env.Host_env.meter in
  Meter.fn m "pool_put" (fun () ->
      m.Meter.block "pool_put" "fast"
        ~writes:[ Meter.range ~base:(Msg.sim_addr msg) ~len:32 () ];
      let outcome = Xk.Pool.put t.pool msg in
      let realloc = outcome = Msg.Reallocated in
      if t.cfg.refresh_shortcircuit then begin
        m.Meter.cold ~triggered:realloc "pool_put" "free";
        m.Meter.cold ~triggered:realloc "pool_put" "malloc"
      end
      else begin
        m.Meter.block "pool_put" "free";
        m.Meter.block "pool_put" "malloc"
      end)

let lance_send t frame =
  let m = t.env.Host_env.meter in
  let shared = Lance.tx_descriptor_rings t.lance in
  (* tx-queue stage opens when the driver takes the frame; re-entry from the
     tx_intr backlog drain is not a new stage and is ignored by the ledger *)
  Obs.Span.mark_tx_queue t.env.Host_env.span ~host:t.env.Host_env.span_host;
  Meter.fn m "lance_send" (fun () ->
      m.Meter.block "lance_send" "setup"
        ~reads:[ Meter.range ~base:(Sparse_mem.sim_addr_of_word shared 0) ~len:16 () ];
      let full = Lance.tx_ring_full t.lance in
      m.Meter.cold ~triggered:full "lance_send" "ring_full";
      if full then begin
        (* all descriptors owned by the controller: park the frame until
           a transmit-complete interrupt frees one *)
        t.tx_ring_full_events <- t.tx_ring_full_events + 1;
        Queue.add frame t.tx_backlog
      end
      else begin
        m.Meter.block "lance_send" "desc"
          ~writes:[ Meter.range ~base:(Sparse_mem.sim_addr_of_word shared 0) ~len:40 () ];
        Lance.transmit t.lance frame;
        t.frames_sent <- t.frames_sent + 1;
        m.Meter.block "lance_send" "go"
      end)

let send t ~dst ~ethertype msg =
  let m = t.env.Host_env.meter in
  Meter.fn m "eth_push" (fun () ->
      let arp_hit = Hashtbl.mem t.arp dst in
      if not arp_hit then Hashtbl.replace t.arp dst ();
      m.Meter.block "eth_push" "hdr"
        ~writes:[ Meter.range ~base:(Msg.sim_addr msg) ~len:Ether.header_bytes () ];
      let hdr = Bytes.create Ether.header_bytes in
      let put48 off v =
        for i = 0 to 5 do
          Bytes.set hdr (off + i) (Char.chr (v lsr (8 * (5 - i)) land 0xFF))
        done
      in
      put48 0 dst;
      put48 6 t.mac;
      Bytes.set hdr 12 (Char.chr (ethertype lsr 8 land 0xFF));
      Bytes.set hdr 13 (Char.chr (ethertype land 0xFF));
      Msg.push msg hdr;
      m.Meter.cold ~triggered:(not arp_hit) "eth_push" "arp_miss";
      m.Meter.block "eth_push" "send";
      m.Meter.call "eth_push" "send" 0;
      lance_send t
        { Ether.dst; src = t.mac; ethertype; payload = Msg.contents msg })

let eth_demux t frame =
  let m = t.env.Host_env.meter in
  let msg = Xk.Pool.get t.pool in
  Msg.set_payload msg frame.Ether.payload;
  Meter.fn m "eth_demux" (fun () ->
      m.Meter.block "eth_demux" "parse"
        ~reads:[ Meter.range ~base:(Msg.sim_addr msg) ~len:Ether.header_bytes () ];
      let hdr = Msg.pop msg Ether.header_bytes in
      let ethertype =
        (Char.code (Bytes.get hdr 12) lsl 8) lor Char.code (Bytes.get hdr 13)
      in
      let handler =
        Xk.Demux.lookup m ~inline:t.cfg.map_cache_inline ~caller:"eth_demux"
          t.handlers (etk ethertype)
      in
      m.Meter.cold ~triggered:(handler = None) "eth_demux" "badtype";
      match handler with
      | None -> ()
      | Some h ->
        m.Meter.block "eth_demux" "dispatch";
        m.Meter.call "eth_demux" "dispatch" 0;
        h ~src:frame.Ether.src msg);
  msg

let lance_rx t frame =
  let m = t.env.Host_env.meter in
  let shared = Lance.tx_descriptor_rings t.lance in
  Obs.Span.mark_rx_proto t.env.Host_env.span ~host:t.env.Host_env.span_host;
  Meter.fn m "lance_rx" (fun () ->
      t.frames_received <- t.frames_received + 1;
      m.Meter.block "lance_rx" "getbuf";
      let missed = Lance.consume_rx_missed t.lance in
      if missed then t.rx_desc_errors <- t.rx_desc_errors + 1;
      m.Meter.cold ~triggered:missed "lance_rx" "baddesc";
      m.Meter.block "lance_rx" "desc_rx"
        ~reads:[ Meter.range ~base:(Sparse_mem.sim_addr_of_word shared 0) ~len:40 () ];
      m.Meter.block "lance_rx" "dispatch";
      m.Meter.call "lance_rx" "dispatch" 0;
      let msg = eth_demux t frame in
      m.Meter.block "lance_rx" "refresh";
      m.Meter.call "lance_rx" "refresh" 0;
      pool_put_metered t msg)

let create env lance ~mac ?(config = improved_config) ?(rx_buffers = 16) () =
  let t =
    { env;
      lance;
      cfg = config;
      mac;
      handlers = Xk.Map.create ~buckets:16 ();
      arp = Hashtbl.create 8;
      pool =
        Xk.Pool.create env.Host_env.simmem
          ~shortcircuit:config.refresh_shortcircuit ~buffers:rx_buffers
          ~size:1600 ();
      tx_backlog = Queue.create ();
      frames_sent = 0;
      frames_received = 0;
      tx_ring_full_events = 0;
      rx_desc_errors = 0 }
  in
  Lance.set_handlers lance
    ~on_tx_complete:(fun () ->
      Host_env.phase env "tx_intr" (fun () ->
          while
            (not (Queue.is_empty t.tx_backlog))
            && not (Lance.tx_ring_full t.lance)
          do
            lance_send t (Queue.pop t.tx_backlog)
          done))
    ~on_receive:(fun frame ->
      Host_env.phase env "rx_intr" (fun () -> lance_rx t frame));
  t

let mac t = t.mac

let reset t =
  (* host crash: the parked transmit frames and the ARP cache live in
     kernel memory and die with it (per-ethertype handler registrations
     model the static protocol graph, so they survive) *)
  Queue.clear t.tx_backlog;
  Hashtbl.reset t.arp

let register t ~ethertype h = Xk.Map.bind t.handlers (etk ethertype) h

let rx_pool t = t.pool

let frames_sent t = t.frames_sent

let frames_received t = t.frames_received

let tx_ring_full_events t = t.tx_ring_full_events

let rx_desc_errors t = t.rx_desc_errors

module Xk = Protolat_xkernel
module Ns = Protolat_netsim
module Meter = Xk.Meter
module Msg = Xk.Msg
module Hexkey = Protolat_util.Hexkey

(* meter sites, interned at module initialisation *)
let s_ip_demux_map = Xk.Demux.caller "ip_demux"
let s_ip_demux = Meter.Site.fn "ip_demux"
let s_ip_demux_validate = Meter.Site.block "ip_demux" "validate"
let s_ip_demux_validate_0 = Meter.Site.call "ip_demux" "validate" 0
let s_ip_demux_options = Meter.Site.cold "ip_demux" "options"
let s_ip_demux_frag_reass = Meter.Site.cold "ip_demux" "frag_reass"
let s_ip_demux_deliver = Meter.Site.block "ip_demux" "deliver"
let s_ip_demux_deliver_0 = Meter.Site.call "ip_demux" "deliver" 0
let s_ip_push = Meter.Site.fn "ip_push"
let s_ip_push_route = Meter.Site.block "ip_push" "route"
let s_ip_push_noroute = Meter.Site.cold "ip_push" "noroute"
let s_ip_push_fragment = Meter.Site.cold "ip_push" "fragment"
let s_ip_push_hdr = Meter.Site.block "ip_push" "hdr"
let s_ip_push_hdr_0 = Meter.Site.call "ip_push" "hdr" 0
let s_ip_push_send = Meter.Site.block "ip_push" "send"
let s_ip_push_send_0 = Meter.Site.call "ip_push" "send" 0

type partial = {
  mutable frags : (int * bytes) list;  (* (byte offset, data), sorted *)
  mutable total_len : int;  (* -1 until the last fragment arrives *)
  mutable have : int;
  proto : int;
  src : int;
}

type t = {
  env : Ns.Host_env.t;
  vnet : Vnet.t;
  my_ip : int;
  inline : bool;
  mtu : int;
  protos : (hdr:Ip_hdr.t -> Msg.t -> unit) Xk.Map.t;
  reass : partial Xk.Map.t;
  mutable ident : int;
  mutable packets_in : int;
  mutable dropped : int;
  mutable fragmented : int;
  mutable reassembled : int;
  cksum : Cksum_meter.counters;
}

(* the text of [Printf.sprintf "ipp%02x"], built directly *)
let protok proto =
  let n = Hexkey.digits ~width:2 proto in
  let b = Bytes.create (3 + n) in
  Bytes.blit_string "ipp" 0 b 0 3;
  ignore (Hexkey.blit b 3 ~digits:n proto);
  Bytes.unsafe_to_string b

let reass_key ~src ~ident = Printf.sprintf "%08x:%04x" src ident

let mf_flag = 1 (* more-fragments, stored in the low flag bit we use *)

let demux t ~src_mac:_ msg =
  let m = t.env.Ns.Host_env.meter in
  m.Meter.enter s_ip_demux;
  t.packets_in <- t.packets_in + 1;
  m.Meter.read (Msg.sim_addr msg) Ip_hdr.size;
  m.Meter.block s_ip_demux_validate;
  (* a frame too short for a header, a bad checksum and a header that
     is not plain IPv4 (version/IHL other than 0x45) are all drops *)
  let raw = Msg.peek msg 0 (min (Msg.len msg) Ip_hdr.size) in
  m.Meter.call s_ip_demux_validate_0;
  let csum_ok =
    Bytes.length raw = Ip_hdr.size
    && Cksum_meter.verify m ~counters:t.cksum ~sim_base:(Msg.sim_addr msg)
         raw 0 Ip_hdr.size
  in
  let hdr =
    if not csum_ok then None
    else
      match Ip_hdr.of_bytes raw with
      | h -> Some h
      | exception Invalid_argument _ -> None
  in
  let fragmented =
    match hdr with
    | Some h -> h.Ip_hdr.frag_off <> 0 || h.Ip_hdr.flags land 1 <> 0
    | None -> false
  in
  m.Meter.cold ~triggered:false s_ip_demux_options;
  m.Meter.cold ~triggered:fragmented s_ip_demux_frag_reass;
  begin match hdr with
  | None -> t.dropped <- t.dropped + 1
  | Some h -> (
    if fragmented then begin
      (* reassembly (the outlined path, but fully functional) *)
      ignore (Msg.pop msg Ip_hdr.size);
      let key = reass_key ~src:h.Ip_hdr.src ~ident:h.Ip_hdr.ident in
      let p =
        match Xk.Map.resolve t.reass key with
        | Some p -> p
        | None ->
          let p =
            { frags = []; total_len = -1; have = 0;
              proto = h.Ip_hdr.proto; src = h.Ip_hdr.src }
          in
          Xk.Map.bind t.reass key p;
          p
      in
      let off = h.Ip_hdr.frag_off * 8 in
      let data = Msg.contents msg in
      if not (List.mem_assoc off p.frags) then begin
        p.frags <- List.sort compare ((off, data) :: p.frags);
        p.have <- p.have + Bytes.length data
      end;
      if h.Ip_hdr.flags land mf_flag = 0 then
        p.total_len <- off + Bytes.length data;
      if p.total_len >= 0 && p.have >= p.total_len then begin
        ignore (Xk.Map.unbind t.reass key);
        t.reassembled <- t.reassembled + 1;
        let whole = Bytes.create p.total_len in
        List.iter
          (fun (o, d) -> Bytes.blit d 0 whole o (Bytes.length d))
          p.frags;
        let out = Msg.alloc t.env.Ns.Host_env.simmem ~headroom:64 0 in
        Msg.set_payload out whole;
        match
          Xk.Demux.lookup m ~inline:t.inline ~caller:s_ip_demux_map t.protos
            (protok p.proto)
        with
        | None -> t.dropped <- t.dropped + 1
        | Some f ->
          m.Meter.block s_ip_demux_deliver;
          m.Meter.call s_ip_demux_deliver_0;
          f ~hdr:{ h with Ip_hdr.frag_off = 0; Ip_hdr.flags = 0 } out
      end
    end
    else
      let handler =
        Xk.Demux.lookup m ~inline:t.inline ~caller:s_ip_demux_map t.protos
          (protok h.Ip_hdr.proto)
      in
      match handler with
      | None -> t.dropped <- t.dropped + 1
      | Some f ->
        ignore (Msg.pop msg Ip_hdr.size);
        m.Meter.block s_ip_demux_deliver;
        m.Meter.call s_ip_demux_deliver_0;
        f ~hdr:h msg)
  end;
  m.Meter.leave s_ip_demux

let create env vnet ~my_ip ?(mtu = 1500) ~map_cache_inline () =
  let t =
    { env;
      vnet;
      my_ip;
      inline = map_cache_inline;
      mtu;
      protos = Xk.Map.create ~buckets:16 ();
      reass = Xk.Map.create ~buckets:16 ();
      ident = 1;
      packets_in = 0;
      dropped = 0;
      fragmented = 0;
      reassembled = 0;
      cksum = Cksum_meter.counters env.Ns.Host_env.metrics }
  in
  Vnet.set_upper vnet (fun ~src_mac msg -> demux t ~src_mac msg);
  t

let my_ip t = t.my_ip

let register t ~proto f = Xk.Map.bind t.protos (protok proto) f

let push t ~dst ~proto msg =
  let m = t.env.Ns.Host_env.meter in
  m.Meter.enter s_ip_push;
  m.Meter.read (Msg.sim_addr msg) 16;
  m.Meter.block s_ip_push_route;
  let routed = Vnet.has_route t.vnet ~ip:dst in
  m.Meter.cold ~triggered:(not routed) s_ip_push_noroute;
  if not routed then t.dropped <- t.dropped + 1
  else begin
    let total_len = Ip_hdr.size + Msg.len msg in
    let needs_frag = total_len > t.mtu in
    m.Meter.cold ~triggered:needs_frag s_ip_push_fragment;
    let ident = t.ident in
    t.ident <- (t.ident + 1) land 0xFFFF;
    if needs_frag then begin
      (* fragment: payload split at 8-byte-aligned boundaries *)
      t.fragmented <- t.fragmented + 1;
      let data = Msg.contents msg in
      let unit_ = (t.mtu - Ip_hdr.size) / 8 * 8 in
      let len = Bytes.length data in
      let rec send_frag off =
        if off < len then begin
          let this = min unit_ (len - off) in
          let last = off + this >= len in
          let hdr =
            { (Ip_hdr.make ~ident ~total_len:(Ip_hdr.size + this) ~proto
                 ~src:t.my_ip ~dst ())
              with
              Ip_hdr.frag_off = off / 8;
              Ip_hdr.flags = (if last then 0 else mf_flag) }
          in
          let frag = Msg.alloc t.env.Ns.Host_env.simmem ~headroom:64 0 in
          Msg.set_payload frag (Bytes.sub data off this);
          Msg.push frag (Ip_hdr.to_bytes hdr);
          Vnet.push t.vnet ~dst_ip:dst frag;
          send_frag (off + this)
        end
      in
      send_frag 0
    end
    else begin
      let hdr =
        Ip_hdr.make ~ident ~total_len ~proto ~src:t.my_ip ~dst ()
      in
      m.Meter.write (Msg.sim_addr msg) Ip_hdr.size;
      m.Meter.block s_ip_push_hdr;
      m.Meter.call s_ip_push_hdr_0;
      (* to_bytes computes the header checksum; emit the cksum trace *)
      let bytes = Ip_hdr.to_bytes hdr in
      let _ =
        Cksum_meter.sum m ~counters:t.cksum ~sim_base:(Msg.sim_addr msg) bytes 0 Ip_hdr.size
      in
      Msg.push msg bytes;
      m.Meter.block s_ip_push_send;
      m.Meter.call s_ip_push_send_0;
      Vnet.push t.vnet ~dst_ip:dst msg
    end
  end;
  m.Meter.leave s_ip_push

let packets_in t = t.packets_in

let packets_dropped t = t.dropped

let datagrams_fragmented t = t.fragmented

let datagrams_reassembled t = t.reassembled

let reset t =
  (* host crash: partially reassembled datagrams die in kernel memory *)
  let keys = ref [] in
  Xk.Map.traverse t.reass (fun key _ -> keys := key :: !keys);
  List.iter (fun key -> ignore (Xk.Map.unbind t.reass key)) !keys

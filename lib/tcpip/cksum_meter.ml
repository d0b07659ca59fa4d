module Meter = Protolat_xkernel.Meter
module Obs = Protolat_obs

(* meter sites, interned at module initialisation *)
let s_in_cksum = Meter.Site.fn "in_cksum"
let s_in_cksum_head = Meter.Site.block "in_cksum" "head"
let s_in_cksum_unrolled64 = Meter.Site.cold "in_cksum" "unrolled64"
let s_in_cksum_qloop = Meter.Site.block "in_cksum" "qloop"
let s_in_cksum_hloop = Meter.Site.block "in_cksum" "hloop"
let s_in_cksum_tail = Meter.Site.block "in_cksum" "tail"

(* An owner's checksum counters, looked up in its registry on the first
   checksum rather than by name on every one.  Registering on first use
   keeps metric dumps unchanged for owners that never checksum.  Each
   owner holds its own: registries are per simulation, and simulations run
   on several domains. *)
type counters = {
  reg : Obs.Metrics.t;
  mutable calls_bytes : (Obs.Metrics.counter * Obs.Metrics.counter) option;
}

let counters reg = { reg; calls_bytes = None }

(* the null meter discards every report: skip the per-quad calls *)
let emit (m : Meter.t) ?(sim_base = 0) off len =
  if m != Meter.null then begin
    let base = sim_base + off in
    m.Meter.enter s_in_cksum;
    m.Meter.block s_in_cksum_head;
    let quads = len / 4 in
    let rest = len - (4 * quads) in
    if len >= 64 then
      for i = 0 to (len / 64) - 1 do
        m.Meter.read (base + (64 * i)) 64;
        m.Meter.cold ~triggered:true s_in_cksum_unrolled64
      done
    else m.Meter.cold ~triggered:false s_in_cksum_unrolled64;
    (* quads not already covered by the unrolled iterations *)
    let covered = if len >= 64 then len / 64 * 16 else 0 in
    for i = covered to quads - 1 do
      m.Meter.read (base + (4 * i)) 4;
      m.Meter.block s_in_cksum_qloop
    done;
    let halves = (rest + 1) / 2 in
    for i = 0 to halves - 1 do
      m.Meter.read (base + (4 * quads) + (2 * i)) 2;
      m.Meter.block s_in_cksum_hloop
    done;
    m.Meter.block s_in_cksum_tail;
    m.Meter.leave s_in_cksum
  end

let count c len =
  let calls, bytes =
    match c.calls_bytes with
    | Some cb -> cb
    | None ->
      let cb =
        ( Obs.Metrics.counter c.reg "cksum.calls",
          Obs.Metrics.counter c.reg "cksum.bytes" )
      in
      c.calls_bytes <- Some cb;
      cb
  in
  Obs.Metrics.inc calls;
  Obs.Metrics.add bytes len

let sum m ~counters ?(initial = 0) ?sim_base buf off len =
  count counters len;
  emit m ?sim_base off len;
  Checksum.sum ~initial buf off len

let compute m ~counters ?(initial = 0) ?sim_base buf off len =
  count counters len;
  emit m ?sim_base off len;
  Checksum.compute ~initial buf off len

let verify m ~counters ?(initial = 0) ?sim_base buf off len =
  count counters len;
  emit m ?sim_base off len;
  let ok = Checksum.verify ~initial buf off len in
  if not ok then
    Obs.Metrics.inc (Obs.Metrics.counter counters.reg "cksum.verify_fail");
  ok

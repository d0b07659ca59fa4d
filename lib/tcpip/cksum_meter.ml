module Meter = Protolat_xkernel.Meter
module Obs = Protolat_obs

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

(* the null meter discards every event: skip building them *)
let emit (m : Meter.t) ?(sim_base = 0) off len =
  if m != Meter.null then
  let rd o l = [ Meter.range ~base:sim_base ~off:o ~len:l () ] in
  Meter.fn m "in_cksum" (fun () ->
      m.Meter.block "in_cksum" "head";
      let quads = len / 4 in
      let rest = len - (4 * quads) in
      if len >= 64 then
        for i = 0 to (len / 64) - 1 do
          m.Meter.cold ~triggered:true "in_cksum" "unrolled64"
            ~reads:(rd (off + (64 * i)) 64)
        done
      else m.Meter.cold ~triggered:false "in_cksum" "unrolled64";
      (* quads not already covered by the unrolled iterations *)
      let covered = if len >= 64 then len / 64 * 16 else 0 in
      for i = covered to quads - 1 do
        m.Meter.block "in_cksum" "qloop" ~reads:(rd (off + (4 * i)) 4)
      done;
      let halves = (rest + 1) / 2 in
      for i = 0 to halves - 1 do
        m.Meter.block "in_cksum" "hloop"
          ~reads:(rd (off + (4 * quads) + (2 * i)) 2)
      done;
      m.Meter.block "in_cksum" "tail")

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

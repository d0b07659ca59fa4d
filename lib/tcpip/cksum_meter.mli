(** Metered Internet checksum: computes the real checksum while reporting
    the "in_cksum" function's block structure (head, 8-byte quad loop,
    outlined ≥64-byte unrolled loop, trailing halfword loop, tail).

    Each call also bumps its owner's [cksum.calls] / [cksum.bytes]
    counters (and [cksum.verify_fail] for failed verifications), so
    checksum work shows up in the unified metrics dump instead of ad-hoc
    per-module accumulators.  With {!Protolat_xkernel.Meter.null} no
    trace events are built at all. *)

type counters
(** One owner's checksum counters (an IP, TCP or BLAST instance).  They are
    registered in the owner's registry on its first checksum, so a
    registry whose owner never checksums dumps no [cksum.*] entries. *)

val counters : Protolat_obs.Metrics.t -> counters

val sum :
  Protolat_xkernel.Meter.t ->
  counters:counters ->
  ?initial:int -> ?sim_base:int -> bytes -> int -> int -> int
(** Running (unfolded) sum, like {!Checksum.sum}, with trace emission.
    [sim_base] is the simulated address of [bytes] for d-cache modeling. *)

val compute :
  Protolat_xkernel.Meter.t ->
  counters:counters ->
  ?initial:int -> ?sim_base:int -> bytes -> int -> int -> int

val verify :
  Protolat_xkernel.Meter.t ->
  counters:counters ->
  ?initial:int -> ?sim_base:int -> bytes -> int -> int -> bool

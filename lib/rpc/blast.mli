(** BLAST: fragmentation / reassembly with selective retransmission [OP92].

    Latency-sensitive zero-size RPCs travel as a single fragment down the
    hot path; larger messages take the outlined fragmentation path, are
    reassembled at the receiver, and missing fragments are requested with a
    NACK carrying a bitmap (selective retransmit). *)

module Xk = Protolat_xkernel
module Ns = Protolat_netsim

type t

val create :
  Ns.Host_env.t ->
  Ns.Netdev.t ->
  ethertype:int ->
  map_cache_inline:bool ->
  ?frag_size:int ->
  unit ->
  t

val set_upper : t -> (src:int -> Xk.Msg.t -> unit) -> unit

val push : t -> dst:int -> Xk.Msg.t -> unit

val messages_fragmented : t -> int

val nacks_sent : t -> int

val retransmissions : t -> int

val cksum_drops : t -> int
(** Fragments rejected because the computed checksum (over the header
    with a zeroed cksum field, plus the payload) did not match. *)

val short_drops : t -> int
(** Frames dropped because they were shorter than a BLAST header. *)

val late_fragments : t -> int
(** Duplicate fragments of messages already delivered (ignored). *)

val abandoned : t -> int
(** Partial reassemblies given up on after repeated unanswered NACKs. *)

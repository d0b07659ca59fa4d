(** CHAN: reliable request-reply channels [OP92].

    A client call sends a sequenced request, arms a retransmission timeout,
    and blocks the calling thread as a continuation.  The reply cancels the
    timeout and signals (unblocks) the thread, which resumes on a stack from
    the LIFO pool and returns to the caller (§2.1).  The server side
    detects duplicate requests and replays the cached reply (at-most-once
    execution). *)

module Xk = Protolat_xkernel
module Ns = Protolat_netsim

type t

val create :
  Ns.Host_env.t -> Bid.t -> peer_mac:int -> ?map_cache_inline:bool -> unit -> t

val call : t -> chan:int -> Xk.Msg.t -> reply:(bytes -> unit) -> unit
(** Issue a request on the channel; [reply] runs as the resumed thread's
    continuation.  @raise Failure if the channel has a call outstanding. *)

val set_server : t -> (chan:int -> bytes -> reply:(bytes -> unit) -> unit) -> unit
(** Install the request dispatcher (VCHAN's demux side). *)

val outstanding : t -> int

val request_retransmits : t -> int

val duplicate_requests : t -> int

val call_failures : t -> int
(** Calls abandoned after the request-retransmission cap: the waiting
    continuation is dropped and the channel released. *)

val short_drops : t -> int
(** Messages dropped because they were shorter than a CHAN header. *)

val map_counters : t -> Xk.Map.counters
(** Operation counters of the channel demux map (resolves, one-entry cache
    hits, key compares, buckets scanned). *)

val map_size : t -> int
(** Number of channel states currently bound in the demux map. *)

val map_nonempty_buckets : t -> int
(** Length of the channel map's lazily maintained non-empty-bucket list. *)

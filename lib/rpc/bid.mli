(** BID: boot-id (epoch) validation [OP92].  Every message is stamped with
    the sender's boot id and its belief of the peer's; stale-epoch messages
    are rejected on the outlined cold path. *)

module Xk = Protolat_xkernel
module Ns = Protolat_netsim

type t

val create : Ns.Host_env.t -> Blast.t -> boot_id:int -> t

val set_upper : t -> (src:int -> Xk.Msg.t -> unit) -> unit

val push : t -> dst:int -> Xk.Msg.t -> unit

val boot_id : t -> int

val peer_boot : t -> int
(** 0 until the first message from the peer arrives. *)

val stale_drops : t -> int

val short_drops : t -> int
(** Messages dropped because they were shorter than a BID header. *)

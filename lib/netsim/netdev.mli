(** The shared network device layer: the device-independent half of the
    Ethernet driver (ETH) plus the LANCE driver's send and receive paths,
    instrumented with the meter block structure both protocol stacks use
    ("eth_push", "lance_send", "lance_rx", "eth_demux").

    Upper protocols register per-ethertype handlers; incoming frames are
    received into pool buffers, demultiplexed upward, and the buffer is
    refreshed (§2.2.2) when processing returns. *)

module Xk = Protolat_xkernel

type config = {
  usc : bool;  (** USC direct descriptor access vs copy-in/copy-out *)
  map_cache_inline : bool;
  refresh_shortcircuit : bool;
}

val improved_config : config

type t

val create :
  Host_env.t -> Lance.t -> mac:int -> ?config:config -> unit -> t

val mac : t -> int

val reset : t -> unit
(** Drop crash-volatile driver state: parked tx-backlog frames and the
    ARP cache.  Handler registrations (the static protocol graph) are
    kept — a restarted host reboots the same stack. *)

val register : t -> ethertype:int -> (src:int -> Xk.Msg.t -> unit) -> unit

val etk : int -> string
(** Handler-map key for an ethertype: the text of
    [Printf.sprintf "%04x"]. *)

val send : t -> dst:int -> ethertype:int -> Xk.Msg.t -> unit
(** The traced output path: eth_push → lance_send → controller. *)

val rx_pool : t -> Xk.Pool.t

val frames_sent : t -> int

val frames_received : t -> int

val tx_ring_full_events : t -> int
(** Sends that found every transmit descriptor owned by the controller
    (the "ring_full" cold path); such frames are parked on a backlog and
    drained from the transmit-complete interrupt. *)

val rx_desc_errors : t -> int
(** Receive interrupts that observed a latched rx-overrun (the "baddesc"
    cold path). *)

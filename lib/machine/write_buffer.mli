(** 4-deep merging write buffer (21064 style): each entry holds one cache
    block; writes to a block already buffered merge into that entry (counted
    like a hit by the paper, Table 6); a write to a new block when the buffer
    is full retires the oldest entry to the b-cache. *)

type t

type outcome =
  | Merged
  | Buffered
  | Retired of int  (** block address pushed out to the b-cache *)

val create : depth:int -> block_bytes:int -> t

val write : t -> int -> outcome

val drain : t -> int list
(** Flush all entries (oldest first), returning their block addresses. *)

val occupancy : t -> int

val merges : t -> int

val writes : t -> int

val retires : t -> int

val reset_stats : t -> unit

val clear : t -> unit
(** Restore the exact state of a fresh {!create}: empty buffer, zeroed
    statistics. *)

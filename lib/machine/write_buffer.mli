(** 4-deep merging write buffer (21064 style): each entry holds one cache
    block; writes to a block already buffered merge into that entry (counted
    like a hit by the paper, Table 6); a write to a new block when the buffer
    is full retires the oldest entry to the b-cache. *)

(** The representation is exposed for {!Memsys}, which resolves a merge in
    place (scan [buf], bump [writes] and [merges]) and calls {!push} only
    for a line not already buffered. *)
type t = {
  depth : int;
  depth_mask : int;  (** [depth - 1] when [depth] is a power of two, else [-1] *)
  block_shift : int;  (** log2 of the block size *)
  buf : int array;  (** circular; oldest entry at [head] *)
  mutable head : int;
  mutable count : int;
  mutable merges : int;
  mutable writes : int;
  mutable retires : int;
}

type outcome =
  | Merged
  | Buffered
  | Retired of int  (** block address pushed out to the b-cache *)

val create : depth:int -> block_bytes:int -> t

val write : t -> int -> outcome

val push : t -> int -> int
(** [push t line] buffers a block (line) address the caller found not
    already buffered — the non-merging half of {!write}, without counting
    the write — and returns the line it retired to make room, or [-1]. *)

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

(** Direct-mapped cache simulator with cold / replacement miss accounting.

    A {e replacement miss} (the paper's "Repl" column in Table 6) is a miss
    on a block that was resident earlier and has since been evicted; a cold
    miss is the first reference to a block. *)

(** The representation is exposed for {!Memsys}, which resolves a hit in
    place — probe [tags], bump [accesses] and [hits], clear
    [last_victim] — instead of paying a call per reference (calls across
    modules are not inlined when a build compiles with [-opaque]).  A miss
    goes through {!fill}.  Everything else should use the functions
    below. *)
type t = {
  name : string;
  block_bytes : int;
  block_shift : int;  (** log2 [block_bytes]: [addr lsr block_shift] is the line *)
  sets : int;
  set_mask : int;  (** [sets - 1] *)
  tags : int array;  (** line cached in each set; [-1] empty *)
  gens : int array;  (** per-set generation counter; empty if untagged *)
  mutable evicted : Bytes.t option array;
      (** paged bitset over lines evicted at least once *)
  mutable accesses : int;
  mutable hits : int;
  mutable cold : int;
  mutable repl : int;
  mutable last_victim : int;
}

type outcome =
  | Hit
  | Miss_cold
  | Miss_repl

val create : name:string -> size_bytes:int -> block_bytes:int -> t

val create_untagged : name:string -> size_bytes:int -> block_bytes:int -> t
(** {!create} without the per-set generation tags the engine's fast path
    verifies residency with: for a cache nobody verifies (the d- and
    b-caches), which then skips the array and its upkeep. *)

val name : t -> string

val line_of : t -> int -> int
(** [line_of t addr] is the block (line) address containing byte address
    [addr] — a shift by the precomputed log2 of the block size, shared by
    {!access} and {!probe}. *)

val access : t -> int -> outcome
(** [access t addr] looks up (and on a miss, fills) the block containing
    byte address [addr]. *)

val fill : t -> int -> bool
(** [fill t line] is the miss half of {!access} on a line ({!line_of}) the
    caller found not resident: counts the access, records and remembers
    the set's victim, installs [line] and bumps the set's generation.
    [true] for a replacement miss, [false] for a cold one. *)

val probe : t -> int -> bool
(** Lookup without filling: is the block containing [addr] resident? *)

(** {2 Generation tags — the engine fast path's residency witness}

    Every set carries a generation counter bumped on each tag change (fill
    or invalidation).  A memoized chunk of code that verified its line
    resident at generation [g] stays provably resident while the
    generation is unchanged, so re-verification is one integer compare
    instead of a probe — and a hit costs no per-instruction work at
    all. *)

val set_of_line : t -> int -> int
(** Set index holding block (line) address [line]. *)

val resident_line : t -> int -> bool
(** Like {!probe} but on a block (line) address from {!line_of}. *)

val generation : t -> int -> int
(** Current generation of set [set] (from {!set_of_line}).  Only on a
    cache from {!create}. *)

val generations : t -> int array
(** The underlying per-set generation array itself, for fast-path
    verifiers that compare generations in a hot loop (a call per compare
    is not free without cross-module inlining).  Callers must treat it as
    read-only.  Empty on a cache from {!create_untagged}. *)

val credit_hits : t -> int -> unit
(** [credit_hits t n] records [n] hits in one step: exactly the statistics
    effect of [n] hitting {!access} calls (accesses and hits up by [n],
    {!last_victim} cleared).  Only valid when the caller has proven all
    [n] lookups would hit (e.g. via generation tags). *)

val invalidate_all : t -> unit
(** Empty the cache but keep statistics and eviction history. *)

val clear : t -> unit
(** Restore the exact state of a fresh {!create}: empty sets, generations
    back at 0, eviction history forgotten (first-touch misses classify as
    cold again), statistics zeroed.  Unlike {!invalidate_all} this is a
    true reset, not an eviction — it lets a scorer reuse one cache
    allocation per candidate instead of paying {!create}.  Only sound when
    no generation snapshot taken before the clear survives it: a reset
    generation can coincide with a stale snapshot and fake residency. *)

val reset_stats : t -> unit

(** Statistics since the last [reset_stats]. *)

val accesses : t -> int

val hits : t -> int

val misses : t -> int

val cold_misses : t -> int

val repl_misses : t -> int

val last_victim : t -> int
(** Block address evicted by the most recent {!access}; [-1] if that access
    hit or filled an empty set.  Valid until the next access — an
    attribution pass reads it immediately after each lookup to name the
    (victim, evictor) pair of a conflict miss. *)

(** Direct-mapped cache simulator with cold / replacement miss accounting.

    A {e replacement miss} (the paper's "Repl" column in Table 6) is a miss
    on a block that was resident earlier and has since been evicted; a cold
    miss is the first reference to a block. *)

(** The representation is exposed for {!Memsys}, which resolves a hit in
    place — probe the tag page, bump [accesses] and [hits], clear
    [last_victim] — instead of paying a call per reference (calls across
    modules are not inlined when a build compiles with [-opaque]), and for
    the engine's fast path, which reads the tag page to decide whether a
    chunk of code is resident.  A miss goes through {!fill}.  Everything
    else should use the functions below.

    The tag array is paged: set [s] is held at
    [pages.(s lsr page_shift).(s land page_mask)], pages hold at most 512
    sets (a smaller cache is one page), and a page is the empty array
    until the first fill of one of its sets materializes it — an empty
    page means every set on it is empty.  So a cache costs a page
    directory at {!create} and a page per region its references reach:
    the 2MB b-cache's 65,536 sets are 128 pages, of which a roundtrip's
    trace touches a handful.  A probe or a hit allocates nothing. *)
type t = {
  name : string;
  block_bytes : int;
  block_shift : int;
      (** log2 [block_bytes]: [addr lsr block_shift] is the line *)
  sets : int;
  set_mask : int;  (** [sets - 1] *)
  page_shift : int;  (** log2 of the sets per tag page *)
  page_mask : int;  (** sets per tag page - 1 *)
  pages : int array array;
      (** line cached in each set, by page; [-1] empty, and an empty
          array for a page no fill has reached *)
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
    the set's victim and installs [line].  [true] for a replacement miss,
    [false] for a cold one. *)

val probe : t -> int -> bool
(** Lookup without filling: is the block containing [addr] resident? *)

val set_of_line : t -> int -> int
(** Set index holding block (line) address [line]: the line is resident
    exactly when [tag t (set_of_line t line) = line]. *)

val tag : t -> int -> int
(** [tag t set] is the line [set] holds, [-1] when it is empty: the page
    table read as a flat tag array. *)

val credit_hits : t -> int -> unit
(** [credit_hits t n] records [n] hits in one step: exactly the statistics
    effect of [n] hitting {!access} calls (accesses and hits up by [n],
    {!last_victim} cleared).  Only valid when the caller has proven all
    [n] lookups would hit (e.g. the line is resident and nothing in
    between can evict it). *)

val invalidate_all : t -> unit
(** Empty the cache but keep statistics and eviction history.  Visits only
    the materialized pages. *)

val clear : t -> unit
(** Restore the exact state of a fresh {!create}: empty sets, eviction
    history forgotten (first-touch misses classify as cold again),
    statistics zeroed.  Unlike {!invalidate_all} this is a true reset, not
    an eviction — it lets a scorer reuse one cache allocation per
    candidate instead of paying {!create}.  It empties the materialized tag
    pages and zeroes the eviction bitset's pages in place rather than
    dropping them, so clearing and re-running a trace the cache has run
    before allocates nothing. *)

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

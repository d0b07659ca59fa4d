(** x-kernel demultiplexing map.

    A chained hash table over byte-string keys with two paper-specific
    features (§2.2.1, §2.2.3):

    - a {e one-entry cache} holding the most recently resolved binding, so
      that back-to-back packets for the same connection hit with a single
      key comparison (the conditionally inlined fast path);
    - a {e lazily maintained list of non-empty buckets}: traversal visits
      only buckets that have been non-empty since the last traversal,
      unlinking emptied buckets as it goes.  This removed TCP's separate
      list of open connections.  Unbind never touches the list (that is the
      lazy part); traversal cost is proportional to the number of non-empty
      buckets plus the number of lazily abandoned ones, not to table size. *)

type 'v t

val create : ?buckets:int -> unit -> 'v t
(** Default 256 buckets (power of two required). *)

val bucket_count : 'v t -> int

val size : 'v t -> int
(** Number of bindings. *)

val bind : 'v t -> string -> 'v -> unit
(** Adds or replaces the binding for the key. *)

val unbind : 'v t -> string -> bool
(** Returns whether a binding was removed. *)

val resolve : 'v t -> string -> 'v option
(** The binding's value.  A hit returns the [Some] the binding keeps, so
    a lookup, hit or miss, allocates nothing. *)

val cache_answered : 'v t -> bool
(** Whether the last {!resolve} was answered by the one-entry cache. *)

val resolve_detail : 'v t -> string -> ('v * [ `Cache_hit | `Probed ]) option
(** Like [resolve] but reports whether the one-entry cache answered (and
    allocates the pair that says so). *)

val traverse : 'v t -> (string -> 'v -> unit) -> unit
(** Visit every binding via the non-empty-bucket list, cleaning it up
    lazily. *)

val traverse_all_buckets : 'v t -> (string -> 'v -> unit) -> unit
(** The pre-optimization traversal: scan every bucket (the BSD "walk the
    whole table" behaviour the paper replaces). *)

val nonempty_list_length : 'v t -> int
(** Current length of the non-empty bucket list, including lazily abandoned
    entries — exposed for tests. *)

(** Operation counters (reset with {!reset_counters}). *)
type counters = {
  resolves : int;
  cache_hits : int;
  key_compares : int;
  buckets_scanned : int;  (** buckets examined by traversals *)
}

val counters : 'v t -> counters

val reset_counters : 'v t -> unit

(** Sample statistics for experiment reporting. *)

val mean : float list -> float
(** @raise Invalid_argument on the empty list. *)

val stddev : float list -> float
(** Sample standard deviation (n-1 denominator); 0 for fewer than 2 points. *)

val min_max : float list -> float * float
(** @raise Invalid_argument on the empty list. *)

val percent_slowdown : float -> float -> float
(** [percent_slowdown slow fast] is [100 * (slow - fast) / fast]. *)

val percentile : float -> float list -> float
(** [percentile p xs] is the nearest-rank p-th percentile of [xs] — the
    smallest sample with at least [p]% of the distribution at or below it.
    Always an actual sample, never interpolated.
    @raise Invalid_argument on the empty list or [p] outside [0,100]. *)

type quantiles = {
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
  n : int;
}

val quantiles : float list -> quantiles
(** Nearest-rank p50/p90/p99 plus the maximum, in one sort.
    @raise Invalid_argument on the empty list. *)

val pp_quantiles : Format.formatter -> quantiles -> unit

(** Streaming log-bucketed histogram: fixed memory at any sample count,
    mergeable across {!Dpool} shards (bucket counts are integers, so merging
    is exact and order-independent), quantiles accurate to one bucket's
    relative width. *)
module Hist : sig
  type t

  val create : ?lo:float -> ?hi:float -> ?per_decade:int -> unit -> t
  (** Log buckets spanning [[lo, hi]] with [per_decade] buckets per decade
      (defaults 0.1 .. 1e8, 32/decade — ~7.5% relative width, 289 buckets).
      Values [<= lo] land in the first bucket; values [> hi] in an overflow
      counter (quantiles there report the exact observed max).  The
      default geometry's bucket bounds are computed once and shared, so a
      default [create] allocates only the counts.
      @raise Invalid_argument unless [0 < lo < hi] and [per_decade >= 1]. *)

  val add : t -> float -> unit
  (** O(1), no allocation. @raise Invalid_argument on NaN. *)

  val count : t -> int

  val total : t -> float
  (** Exact running sum of all added values. *)

  val min_value : t -> float
  val max_value : t -> float
  (** Exact observed extrema ([nan] when empty). *)

  val mean_value : t -> float

  val merge : t -> t -> t
  (** Fresh histogram holding both inputs' samples; commutative and
      associative (integer bucket counts), so shard order cannot change the
      result. @raise Invalid_argument on mismatched geometry. *)

  val quantile : t -> float -> float
  (** [quantile t p] for [p] in [[0,100]]: nearest-rank over cumulative
      bucket counts, reported as the holding bucket's upper edge clamped to
      the observed [[min, max]] — always [>=] the exact nearest-rank sample
      and within one bucket's relative width ({!rel_error}) above it.
      @raise Invalid_argument when empty or [p] out of range. *)

  val rel_error : t -> float
  (** Worst-case relative error of {!quantile}: [10^(1/per_decade) - 1]. *)

  type digest = {
    p50 : float;
    p90 : float;
    p99 : float;
    p999 : float;
    p9999 : float;
    max : float;
    n : int;
  }

  val digest : t -> digest
  (** Tail summary in one pass; all-zero when empty ([max] is the exact
      observed maximum, percentiles are bucket upper edges). *)

  val pp_digest : Format.formatter -> digest -> unit
end

type summary = {
  mean : float;
  stddev : float;
  n : int;
}

val summarize : float list -> summary

val pp_summary : Format.formatter -> summary -> unit

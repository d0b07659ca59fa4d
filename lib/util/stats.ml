let mean = function
  | [] -> invalid_arg "Stats.mean"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let n = float_of_int (List.length xs) in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (ss /. (n -. 1.0))

let min_max = function
  | [] -> invalid_arg "Stats.min_max"
  | x :: xs ->
    List.fold_left (fun (lo, hi) v -> (Float.min lo v, Float.max hi v)) (x, x) xs

let percent_slowdown slow fast = 100.0 *. (slow -. fast) /. fast

(* nearest-rank percentile on a sorted copy: the smallest sample such that at
   least p% of the distribution is <= it.  No interpolation, so every reported
   value is an actual sample — hand-checkable and stable under jobs order. *)
let percentile p xs =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  match xs with
  | [] -> invalid_arg "Stats.percentile"
  | _ ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

type quantiles = {
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
  n : int;
}

let quantiles xs =
  match xs with
  | [] -> invalid_arg "Stats.quantiles"
  | _ ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    let at p =
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))
    in
    { p50 = at 50.0; p90 = at 90.0; p99 = at 99.0; max = a.(n - 1); n }

let pp_quantiles fmt q =
  Format.fprintf fmt "p50=%.1f p90=%.1f p99=%.1f max=%.1f (n=%d)" q.p50 q.p90
    q.p99 q.max q.n

(* Streaming log-bucketed histogram.  Fixed memory however many samples are
   added, mergeable across Dpool shards (bucket counts are ints, so merging
   is exact and order-independent), and nearest-rank quantiles accurate to
   one bucket's relative width (10^(1/per_decade)). *)
module Hist = struct
  type t = {
    lo : float; (* lower edge of the first regular bucket *)
    per_decade : int;
    bounds : float array; (* bounds.(i) = upper edge of bucket i *)
    counts : int array; (* regular buckets; values <= lo land in bucket 0 *)
    mutable overflow : int;
    mutable n : int;
    mutable sum : float;
    mutable minv : float;
    mutable maxv : float;
  }

  let bounds_of ~lo ~hi ~per_decade =
    let decades = log10 (hi /. lo) in
    let nbuckets = int_of_float (ceil (decades *. float_of_int per_decade)) + 1 in
    Array.init nbuckets (fun i ->
        lo *. (10.0 ** (float_of_int (i + 1) /. float_of_int per_decade)))

  (* the default geometry's bounds, computed once and shared (never
     written): built at module initialisation, not forced lazily, because
     Dpool's domains create histograms concurrently *)
  let default_bounds = bounds_of ~lo:0.1 ~hi:1.0e8 ~per_decade:32

  let create ?(lo = 0.1) ?(hi = 1.0e8) ?(per_decade = 32) () =
    if not (lo > 0.0 && hi > lo) then invalid_arg "Hist.create: need 0 < lo < hi";
    if per_decade < 1 then invalid_arg "Hist.create: per_decade < 1";
    let bounds =
      if lo = 0.1 && hi = 1.0e8 && per_decade = 32 then default_bounds
      else bounds_of ~lo ~hi ~per_decade
    in
    { lo;
      per_decade;
      bounds;
      counts = Array.make (Array.length bounds) 0;
      overflow = 0;
      n = 0;
      sum = 0.0;
      minv = infinity;
      maxv = neg_infinity }

  let rel_error t = (10.0 ** (1.0 /. float_of_int t.per_decade)) -. 1.0

  let bucket_of t v =
    if v <= t.lo then 0
    else
      let i =
        int_of_float
          (floor (log10 (v /. t.lo) *. float_of_int t.per_decade))
      in
      if i < 0 then 0 else if i >= Array.length t.counts then -1 (* overflow *)
      else begin
        (* float log10 can land one bucket off right at an edge; nudge so the
           invariant bounds.(i-1) < v <= bounds.(i) really holds *)
        let i = if v > t.bounds.(i) then i + 1 else i in
        let i = if i > 0 && v <= t.bounds.(i - 1) then i - 1 else i in
        if i >= Array.length t.counts then -1 else i
      end

  let add t v =
    if Float.is_nan v then invalid_arg "Hist.add: NaN";
    t.n <- t.n + 1;
    t.sum <- t.sum +. v;
    if v < t.minv then t.minv <- v;
    if v > t.maxv then t.maxv <- v;
    match bucket_of t v with
    | -1 -> t.overflow <- t.overflow + 1
    | i -> t.counts.(i) <- t.counts.(i) + 1

  let count t = t.n
  let total t = t.sum
  let min_value t = if t.n = 0 then nan else t.minv
  let max_value t = if t.n = 0 then nan else t.maxv
  let mean_value t = if t.n = 0 then nan else t.sum /. float_of_int t.n

  let same_geometry a b =
    a.lo = b.lo && a.per_decade = b.per_decade
    && Array.length a.counts = Array.length b.counts

  let merge a b =
    if not (same_geometry a b) then invalid_arg "Hist.merge: geometry mismatch";
    (* the verified-equal geometry of [a], bounds shared *)
    { lo = a.lo;
      per_decade = a.per_decade;
      bounds = a.bounds;
      counts = Array.mapi (fun i c -> c + b.counts.(i)) a.counts;
      overflow = a.overflow + b.overflow;
      n = a.n + b.n;
      sum = a.sum +. b.sum;
      minv = Float.min a.minv b.minv;
      maxv = Float.max a.maxv b.maxv }

  (* Nearest-rank over cumulative bucket counts: the reported value is the
     upper edge of the bucket holding the rank-th smallest sample, clamped to
     the observed [min, max] — so it is >= the exact nearest-rank percentile
     and at most one bucket's relative width above it. *)
  let quantile t p =
    if p < 0.0 || p > 100.0 then invalid_arg "Hist.quantile: p out of range";
    if t.n = 0 then invalid_arg "Hist.quantile: empty";
    let rank = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int t.n))) in
    let rec scan i cum =
      if i >= Array.length t.counts then t.maxv
      else
        let cum = cum + t.counts.(i) in
        if cum >= rank then t.bounds.(i) else scan (i + 1) cum
    in
    let v = scan 0 0 in
    Float.max t.minv (Float.min v t.maxv)

  type digest = {
    p50 : float;
    p90 : float;
    p99 : float;
    p999 : float;
    p9999 : float;
    max : float;
    n : int;
  }

  let digest (t : t) =
    if t.n = 0 then
      { p50 = 0.0; p90 = 0.0; p99 = 0.0; p999 = 0.0; p9999 = 0.0; max = 0.0; n = 0 }
    else
      { p50 = quantile t 50.0;
        p90 = quantile t 90.0;
        p99 = quantile t 99.0;
        p999 = quantile t 99.9;
        p9999 = quantile t 99.99;
        max = t.maxv;
        n = t.n }

  let pp_digest fmt d =
    Format.fprintf fmt "p50=%.1f p90=%.1f p99=%.1f p99.9=%.1f max=%.1f (n=%d)"
      d.p50 d.p90 d.p99 d.p999 d.max d.n
end

type summary = {
  mean : float;
  stddev : float;
  n : int;
}

let summarize xs = { mean = mean xs; stddev = stddev xs; n = List.length xs }

let pp_summary fmt s = Format.fprintf fmt "%.1f±%.2f (n=%d)" s.mean s.stddev s.n

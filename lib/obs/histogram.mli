(** Fixed-size log-linear latency histogram.  The serving simulator
    and the {!Metrics} registry both use this implementation, so there
    is exactly one quantile routine.

    Geometric buckets, [per_decade] per factor of ten between [lo] and
    [hi], plus underflow and overflow buckets.  Constant memory
    regardless of sample count; {!percentile} reports bucket upper
    edges clamped to the recorded range, so answers are conservative
    with relative error [10^(1/per_decade) - 1] (under 10% at the
    default resolution). *)

type t

(** Defaults: [lo = 1e-7] (0.1 µs), [hi = 100.0] seconds,
    [per_decade = 25]. *)
val create : ?lo:float -> ?hi:float -> ?per_decade:int -> unit -> t

(** Record one non-negative sample (seconds). *)
val add : t -> float -> unit

val count : t -> int
val total : t -> float

(** NaN when empty, like the three below. *)
val mean : t -> float

val min_value : t -> float

(** Exact recorded extremes, not bucket edges. *)
val max_value : t -> float

(** [percentile t 0.99] is the p99 sample value: the upper edge of the
    bucket holding the nearest-rank quantile, clamped to
    [\[min_value, max_value\]]; [q] in [0;1].  NaN when empty. *)
val percentile : t -> float -> float

(** Bucket-wise sum.  All inputs must share one configuration; raises
    [Invalid_argument] on an empty list or mismatched configurations.
    How per-shard latency records combine into the run-wide report. *)
val merge : t list -> t

(** Visit every bucket in increasing-edge order with its upper edge
    ([le], [infinity] for the overflow bucket) and its own — not
    cumulative — count.  The walk a Prometheus [le]-series exporter
    needs. *)
val iter_buckets : t -> (le:float -> count:int -> unit) -> unit

(** Count, mean, exact min/max and p50/p90/p95/p99 as a JSON
    object. *)
val to_json : t -> Json.t

(**/**)

(** Exposed for tests. *)
val nbuckets : t -> int

val index : t -> float -> int

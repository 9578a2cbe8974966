(** Log-bucketed histogram with mergeable quantiles (HdrHistogram-style).

    Values are non-negative integers (negative inputs clamp to 0),
    typically nanoseconds. Exponential buckets are split into
    [2^precision] linear sub-buckets, bounding the relative quantile
    error at [2^-precision] (default precision 7: <= 0.79%). Values
    below [2^(precision+1)] are recorded exactly.

    Recording is O(1) and allocation-free once the counts array has
    grown to cover the observed range; merging is element-wise, so
    per-replica histograms combine into cluster-wide quantiles without
    retaining samples. *)

type t

val create : ?precision:int -> unit -> t
(** Raises [Invalid_argument] unless [precision] is in [1, 20]. *)

val precision : t -> int
val record : ?n:int -> t -> int -> unit
val count : t -> int
val is_empty : t -> bool
val sum : t -> float
val min_value : t -> int option
val max_value : t -> int option

val quantile : t -> float -> int option
(** [quantile t q] with [q] in [0, 1]: the highest value equivalent to
    the bucket holding the q-th recorded value, clamped to the recorded
    [min]/[max]. [None] when empty or [q] is out of range. *)

val merge : into:t -> t -> unit
(** Element-wise addition. Raises [Invalid_argument] on precision
    mismatch. Associative and commutative up to the resulting counts. *)

val copy : t -> t
(** Independent snapshot; further recording into either side does not
    affect the other. *)

val diff : since:t -> t -> t
(** [diff ~since t], where [since] is an earlier {!copy} of the same
    histogram: the distribution of the values recorded in between — the
    windowed view the online monitor evaluates percentiles over.
    Negative per-bucket deltas (not possible for true snapshots) clamp
    to zero. Min/max derive from the diffed buckets' bounds, so they
    carry the usual bucket error. Raises [Invalid_argument] on precision
    mismatch. *)

val iter_buckets : t -> (lo:int -> hi:int -> count:int -> unit) -> unit
(** Non-empty buckets in ascending value order. *)

val buckets : t -> (int * int * int) list
(** [(lo, hi, count)] for non-empty buckets, ascending. *)

val pp : t Fmt.t

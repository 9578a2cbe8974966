(** Streaming SLO windows over telemetry snapshots.

    An evaluator consumes the (metric, value) snapshots that
    {!Telemetry.Sampler} delivers to its subscribers and, at each
    window boundary the orchestrator picks, produces a {!window}: the
    closing snapshot plus, per metric name, the counter delta and the
    windowed latency distribution since the previous close (cumulative
    histogram snapshots diffed with {!Telemetry.Hdr.diff}, merged
    across label sets).

    Window boundaries are virtual-time instants chosen by the caller,
    and evaluation reads no wall clock and no PRNG — equal seeds
    evaluate byte-identical window sequences. *)

type t
(** Evaluator state: the previous close's per-series values and
    histogram snapshots. *)

val create : unit -> t

type window

val advance :
  t ->
  t0:int ->
  t1:int ->
  (Telemetry.Registry.metric * float) list ->
  window
(** Close the window [t0, t1) with the given snapshot (the sampler's
    subscriber payload) and advance the evaluator's baseline to it. *)

type agg = Max | Sum

val index : window -> int
(** Window ordinal since {!create} (0-based). *)

val t1 : window -> int

val value : window -> agg -> string -> float option
(** Aggregate of the metric's current value across its label sets
    ([Max] for gauges like queue depth, [Sum] for totals); [None] when
    the metric has no series yet. *)

val delta : window -> string -> float
(** Sum over the metric's series of (value at close − value at previous
    close). Meaningful for counters (and histogram counts); [0.] when
    absent. *)

val rate_per_s : window -> string -> float
(** [delta] normalized to events per (virtual) second. *)

val quantile_ns : window -> string -> float -> int option

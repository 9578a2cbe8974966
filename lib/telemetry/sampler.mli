(** Virtual-time metric sampler.

    Snapshots every metric of a {!Registry.t} into per-metric
    time-series. The sampler has no clock of its own: a driver fiber
    calls {!tick} with the engine's virtual [now] every [interval]
    virtual nanoseconds, so sampling never perturbs the simulated
    microsecond path (it runs between events, in zero virtual time).

    Counters and gauges sample their current value; histograms sample
    their cumulative count (distributions are exported once at the end
    via {!Export}, not per-sample).

    {b Epochs.} Experiment harnesses build a fresh engine per
    experiment, restarting virtual time from 0. Call {!start_epoch}
    when (re)attaching the sampler to a new engine; every sample is
    tagged with the epoch id so timelines from successive experiments
    do not interleave.

    {b Bounded memory.} Each (series, epoch) stores at most
    [max_points_per_epoch] samples: on overflow it drops every other
    stored point and doubles its sampling stride. The decimation
    depends only on the tick sequence, keeping equal-seed exports
    byte-identical. *)

type t

val create : ?max_points_per_epoch:int -> Registry.t -> interval:int -> t
(** [interval] is in virtual nanoseconds (it is advisory — the driver
    enforces the cadence). Default [max_points_per_epoch] is 65536. *)

val registry : t -> Registry.t
val interval : t -> int

val start_epoch : t -> unit
val current_epoch : t -> int
(** -1 before the first {!start_epoch}. *)

val tick : t -> now:int -> unit
(** Sample every registered metric at virtual time [now]. Raises
    [Invalid_argument] before the first {!start_epoch}. *)

type subscriber = now:int -> epoch:int -> (Registry.metric * float) list -> unit

val subscribe : t -> subscriber -> unit
(** Called at the end of every {!tick} with the same (metric, value)
    snapshot the sampler just stored — one registry scan serves both
    the series store and every subscriber. Subscribers run in
    registration order, in zero virtual time; online evaluators (the
    monitor library) hook in here instead of re-reading the registry
    on their own cadence. *)

val series : t -> (Registry.metric * (int * (int * float) array) list) list
(** All series, sorted by (name, labels); per series the epochs in
    ascending epoch order, each with its (virtual ts, value) samples in
    recording order. *)

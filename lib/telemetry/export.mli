(** Deterministic exporters for a {!Registry.t} (and optionally the
    {!Sampler.t} time-series).

    All exporters iterate in the registry's canonical sorted order and
    format numbers deterministically, so equal-seed runs produce
    byte-identical output; the tier-1 tests [e2e export deterministic]
    and [fig3 metrics and results] / [fig6 metrics and results] compare
    two dumps. *)

val prometheus : Registry.t -> string
(** Prometheus text exposition format. Histograms emit cumulative
    [_bucket{le="..."}] rows (upper bucket edges), [_sum] and
    [_count]. *)

val csv : Registry.t -> string
(** [metric,labels,kind,field,value] rows; histograms expand into
    count/sum/min/max/p0.5/p0.9/p0.99/p0.999 rows. *)

val series_csv : Sampler.t -> string
(** [metric,labels,epoch,t_ns,value] rows for every sampled point. *)

val json : ?sampler:Sampler.t -> Registry.t -> string
(** Single JSON document: metrics (histograms with buckets and
    quantiles) plus, when [sampler] is given, every time-series. *)

val to_file : ?sampler:Sampler.t -> Registry.t -> string -> unit
(** Write to [path], format selected by extension: [.json] (metrics +
    series), [.csv] (metrics, with series in [<base>_series.csv]),
    [.prom]/[.txt] (Prometheus text). Unknown extensions get JSON. *)

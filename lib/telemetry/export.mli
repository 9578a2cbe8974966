(** The deterministic exporter for a {!Registry.t} (and optionally the
    {!Sampler.t} time-series): one JSON document.

    It iterates in the registry's canonical sorted order and prints
    through the [Json] codec, so equal-seed runs produce byte-identical
    output; the tier-1 tests [e2e export deterministic] and
    [fig3 metrics and results] / [fig6 metrics and results] compare two
    dumps. *)

val json : ?sampler:Sampler.t -> Registry.t -> string
(** Single JSON document: metrics (histograms with buckets and
    quantiles) plus, when [sampler] is given, every time-series. *)

val to_file : ?sampler:Sampler.t -> Registry.t -> string -> unit
(** Write {!json} to [path], whatever its extension; the CLIs refuse a
    [--metrics] path that does not end in [.json]. *)

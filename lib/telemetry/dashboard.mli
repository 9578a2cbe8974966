(** Text dashboard over a {!Registry.t} and optional {!Sampler.t}.

    Renders the latency percentile table (p50/p90/p99/p99.9, in
    microseconds, for [_ns]-suffixed histograms), the fail-over phase
    breakdown (total / detection / permission-switch medians and
    shares), the crash-recovery and serving-tier summaries, and an
    ASCII timeline of follower pull-scores showing the crossing below
    the fail threshold and back above the recover threshold. *)

val recovery_summary : Registry.t -> string
(** Crash-recovery instruments: per-replica rejoin count, median
    restart-to-parity latency and catch-up entries pulled
    ([mu_rejoin_time_to_parity_ns] / [mu_catch_up_entries_total]), plus
    degraded-window and shed-request totals; empty string if no
    recovery ran. *)

val has_fail_recover_crossing : Sampler.t -> bool
(** True iff some [mu_score] series drops below 2 and later rises above
    6 — the acceptance check for a detected fail-over. *)

val render : ?sampler:Sampler.t -> Registry.t -> string
(** All sections that have data, or a placeholder line if none do. The
    score timeline has one row per (replica, peer, epoch) [mu_score]
    series that crossed below the fail threshold (2) and above the
    recover threshold (6), one hex digit (0-f) per column, annotated with
    the first fail and recover crossing times. *)

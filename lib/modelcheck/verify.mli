(** The verify sweep: generated chaos specs with scripted clients, driven
    through the real cluster and judged against the pure model, with the
    first failure shrunk to a minimized repro bundle.

    Each case is a {!Workload.Chaos.cases} case whose PRNG then draws the
    history, so a failing case is replayable from a single 64-bit number —
    and the emitted bundle carries the whole spec explicitly anyway, so a
    repro outlives generator changes. *)

type report = {
  cases : int;
  failed : int;
  verdicts : (int64 * int * Conformance.verdict) list;
      (** Per case: (seed, n, verdict), in execution order. *)
  coverage : Faults.Scenario.coverage;  (** Fault mix actually generated. *)
  op_stats : History.stats;  (** Op mix actually generated. *)
  first_witness : Workload.Chaos.witness option;
      (** The first failure's witness from its {e un}shrunk run. *)
  minimized : (Repro.t * Shrink.shrunk) option;
      (** First failure shrunk to a bundle; [None] when all cases pass. *)
}

val sweep :
  ?cases:int ->
  ?ns:int list ->
  ?inject:int ->
  ?clients:int ->
  ?ops_per_client:int ->
  ?budget:int ->
  ?log:(string -> unit) ->
  seed:int64 ->
  unit ->
  report
(** [cases] (default 25) generated specs, cluster sizes cycling through
    [ns] (default [[3; 5]]); [inject] (default 0) is every spec's
    [inject] — the self-test hook; [clients] × [ops_per_client] (default 3 × 8) shape
    each history; [budget] bounds the shrinker's re-executions. [log]
    observes one line per case plus shrink progress. *)

val replay : Repro.t -> Shrink.result * string
(** Re-execute a bundle's spec and re-emit the bundle with the verdict
    the run actually produced: byte-identical to the input exactly when
    the failure still reproduces. *)

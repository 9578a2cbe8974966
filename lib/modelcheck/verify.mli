(** The one sweep: generated chaos specs driven through the real cluster
    and judged by {!Workload.Chaos.verdict}, with the first failure shrunk
    to a minimized repro bundle. [mu_demo verify] and [mu_demo chaos
    --sweep] both run it.

    Each case is a {!Workload.Chaos.cases} case; with scripted traffic its
    PRNG then draws the history, so a failing case is replayable from a
    single 64-bit number — and the emitted bundle carries the whole spec
    explicitly anyway, so a repro outlives generator changes. *)

type traffic =
  | Scripted of { clients : int; ops_per_client : int }
      (** A {!History.generate} history per case, drawn from its PRNG. *)
  | Spec_clients  (** Each spec's own random closed-loop clients. *)

type report = {
  cases : int;
  failed : int;
  coverage : Faults.Scenario.coverage;  (** Fault mix actually generated. *)
  op_stats : History.stats option;
      (** Op mix actually generated; [None] under [Spec_clients]. *)
  first_witness : Workload.Chaos.witness option;
      (** The first failure's witness from its {e un}shrunk run. *)
  minimized : (Repro.t * Shrink.shrunk) option;
      (** First failure shrunk to a bundle; [None] when all cases pass. *)
}

val sweep :
  ?cases:int ->
  ?ns:int list ->
  ?inject:int ->
  ?traffic:traffic ->
  ?budget:int ->
  ?log:(string -> unit) ->
  seed:int64 ->
  unit ->
  report
(** [cases] (default 25) generated specs, cluster sizes cycling through
    [ns] (default [[3; 5]], non-empty); [inject] (default 0) is every
    spec's [inject] — the self-test hook; [traffic] (default 3 scripted
    clients × 8 ops) shapes each history; [budget] bounds the shrinker's
    re-executions. [log] observes one line per case plus shrink
    progress. *)

val replay : Repro.t -> Shrink.result * string
(** Re-execute a bundle's spec and re-emit the bundle with the verdict
    the run actually produced: byte-identical to the input exactly when
    the failure still reproduces. *)

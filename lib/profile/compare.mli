(** Perf-regression gate over [mu-bench-results/1] documents.

    Diffs the {e deterministic} fields of a current bench results file
    against a baseline document (normally the committed one-line
    [bench/BASELINE.jsonl]) with per-field worse-direction tolerances.
    Volatile wall-clock fields are never compared. Fields missing on either side (partial
    [--only] runs), and checks ok in the baseline but absent from the
    current document, are skipped and listed, not failed. Baselines
    with a different seed or quick flag are incomparable: the result
    says so and carries no verdict. *)

type direction = [ `Lower_is_better | `Higher_is_better ]

type rule = { r_path : string list; r_dir : direction; r_tol_pct : float }

type field = {
  f_path : string;
  f_baseline : float;
  f_current : float;
  f_delta_pct : float; (** (current − baseline) / baseline × 100 *)
  f_tol_pct : float;
  f_regressed : bool;
}

type result = {
  fields : field list;
  skipped : string list;
      (** fields missing on either side, then ["check NAME"] for each
          check ok in the baseline and absent now *)
  checks_broken : string list; (** ok in baseline, failing now *)
  comparable : bool;
  note : string; (** why not comparable, or [""] *)
}

val run :
  ?rules:rule list -> baseline:Json.t -> current:Json.t -> unit -> result
(** [rules] defaults to replication/failover latency percentiles
    (+10%), best serving committed/us (−15%), minor words per event
    (+15%) and profile span (+25%). [serving.best_committed_per_us] is
    derived: the max over the surface's cells. *)

val regressed : result -> bool
(** True iff comparable and some field regressed or some check broke. *)

val pp : result Fmt.t
val to_string : result -> string

val load_results : string -> (Json.t, string) Stdlib.result
(** Parse a whole results file as one JSON document. *)

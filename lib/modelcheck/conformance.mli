(** Verdicts of the verify sweep.

    There is one linearizability search ({!Workload.Linearizability.Make})
    and two models on it: the abstract register, kept for benchmark and
    example histories, and the KV reply model {!Workload.Chaos.check}.
    {!Workload.Chaos.run} judges every run once with the KV reply model;
    this module only ranks that outcome into a verdict, so [mu_demo chaos]
    and [mu_demo verify] cannot disagree about a run. *)

type verdict =
  | Pass
  | Not_conformant  (** Replies inconsistent with every model order. *)
  | Invariant_violation  (** Appendix A failed on raw replica state. *)
  | Crash  (** A fiber raised and stopped the run. *)
  | Stall  (** Clients never finished before the horizon. *)

val verdict_to_string : verdict -> string
val verdict_of_string : string -> verdict option
(** Stable strings for the repro bundle: ["pass"], ["not-conformant"],
    ["invariant-violation"], ["crash"], ["stall"]. *)

val judge : Workload.Chaos.outcome -> verdict
(** Overall verdict of a run, most specific first: model non-conformance
    (the outcome's witness), then invariant violations, then a crash,
    then a liveness stall. *)

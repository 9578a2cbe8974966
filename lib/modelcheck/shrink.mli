(** Deterministic shrinking of failing (seed, scenario, history) triples.

    Greedy delta debugging to a fixpoint: each candidate — a client
    dropped, a per-client suffix truncated, a single op deleted, a fault
    event dropped, the cluster shrunk from 5 to 3 — is re-executed
    through the real cluster ({!run}) and kept only if it {e still
    fails} (any failing verdict; a shrink step may legitimately change
    {e how} it fails). Candidates are enumerated in one fixed order and
    every re-execution is a deterministic simulation, so the same triple
    always shrinks to the same minimum — the property the shrink
    determinism tests pin down. *)

type triple = {
  t_seed : int64;
  t_n : int;
  t_inject : int;
      (** {!Apps.Kv_store.test_only_lose_put_every} during the run
          (0 = off) — part of the triple so a repro is self-contained. *)
  t_scenario : Faults.Scenario.t;
  t_history : Workload.Chaos.scripted_op list list;
}

type result = {
  verdict : Conformance.verdict;
  witness : Conformance.witness option;
  outcome : Workload.Chaos.outcome;
}

val run : triple -> result
(** Execute the triple: set the injection flag, run its history as a
    {!Workload.Chaos.Script} on one default group, judge the recorded replies.
    The flag is restored on exit, even on raise. *)

type shrunk = {
  minimized : triple;
  final : result;  (** The minimized triple's own (still failing) run. *)
  reruns : int;  (** Candidate executions spent. *)
  exhausted : bool;
      (** Budget ran out before the fixpoint — the result is a smaller
          repro but may not be minimal. Loudly reported, never silent. *)
}

val shrink : ?budget:int -> ?log:(string -> unit) -> triple -> result -> shrunk
(** [shrink t r] with [r] a failing run of [t]. [budget] (default 500)
    bounds candidate re-executions. [log] observes accepted steps and
    budget exhaustion. Raises [Invalid_argument] if [r] passes. *)

val ops : triple -> int
(** Total ops across clients. *)

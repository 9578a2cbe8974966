(** Deterministic shrinking of failing chaos specs.

    Greedy delta debugging to a fixpoint: each candidate — a client
    dropped, a per-client suffix truncated, a single op deleted, a fault
    event dropped, the cluster shrunk from 5 to 3 — is re-executed
    through the real cluster ({!run}) and kept only if it {e still
    fails} (any failing verdict; a shrink step may legitimately change
    {e how} it fails). Every other spec field (config, shards, horizon,
    inject) rides along unchanged. Candidates are enumerated in one fixed
    order and every re-execution is a deterministic simulation, so the
    same spec always shrinks to the same minimum — the property the
    shrink determinism tests pin down. *)

type result = {
  verdict : Workload.Chaos.verdict;
  outcome : Workload.Chaos.outcome;  (** Its [witness] backs a [Not_conformant]. *)
}

val run : Workload.Chaos.spec -> result
(** Run the spec (its [inject] included) and judge the recorded
    replies. *)

type shrunk = {
  minimized : Workload.Chaos.spec;
  final : result;  (** The minimized spec's own (still failing) run. *)
  reruns : int;  (** Candidate executions spent. *)
  exhausted : bool;
      (** Budget ran out before the fixpoint — the result is a smaller
          repro but may not be minimal. Loudly reported, never silent. *)
}

val shrink :
  ?budget:int -> ?log:(string -> unit) -> Workload.Chaos.spec -> result -> shrunk
(** [shrink s r] with [r] a failing [run s], where [s] has
    [clients = Script _] (a [Random] spec only loses fault events and
    replicas). [budget] (default 500) bounds candidate re-executions.
    [log] observes accepted steps and budget exhaustion. Raises
    [Invalid_argument] if [r] passes. *)

val ops : Workload.Chaos.spec -> int
(** Total ops across clients, scripted or random. *)

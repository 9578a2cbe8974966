(** Chaos for the sharded tier: {!Mu.Sharded} under injected faults.

    A fresh [shards × n] cluster serves the KV application while
    per-shard closed-loop clients record real-time histories; the
    scenario's faults land on shard 0's replicas. Checks:

    - {e per-shard linearizability} — each shard's history must
      linearize on its own (shards order only their own key space);
    - {e cross-shard isolation} — values are stamped with their shard,
      so a read observing another shard's stamp is a routing leak;
    - the Appendix A {e invariants} over every shard's replicas.

    Deterministic per [seed] + scenario, like {!Workload.Chaos}. *)

type outcome = {
  seed : int64;
  n : int;
  shards : int;
  scenario : Faults.Scenario.t;
  completed : bool;
  ops : int;
  per_shard_linearizable : bool;
  isolated : bool;
  violations : Mu.Invariants.violation list;
  rejoins : int;  (** Completed rejoin pipelines (faulted shard). *)
  shed : int;
}

val passed : outcome -> bool
(** Completed, per-shard linearizable, isolated, invariant-clean. *)

val pp_outcome : outcome Fmt.t

val run :
  ?clients_per_shard:int ->
  ?ops_per_client:int ->
  ?think:int ->
  ?horizon:int ->
  ?config:Mu.Config.t ->
  seed:int64 ->
  n:int ->
  shards:int ->
  Faults.Scenario.t ->
  outcome
(** One run. Defaults: 2 clients per shard, 20 ops each, 100 µs think
    time (stretching the history across the fault window), 2 s safety
    horizon. Each shard runs [config] with its replica count set to [n].
    The default config serves one slot at a time from a 4096-slot log
    with 1 ms recycling and durable state, so [Restart] events recover
    from NVM; a windowed serve config (for example {!Surface.config})
    puts the leader's windowed loop under the faults. Scenario host ids
    address shard 0's replicas. *)

val keys_for : shards:int -> shard:int -> count:int -> string array
(** [count] keys that provably route to [shard] under
    {!Mu.Sharded.key_hash} routing with [shards] shards. *)

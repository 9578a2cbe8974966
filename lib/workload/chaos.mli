(** Chaos runner: Mu under injected faults, checked for safety.

    A run is a {!spec}: a fresh [shards × config.n] {!Mu.Sharded} cluster
    serving the KV application (a single group is [shards = 1]), a
    {!Faults.Scenario.t} on shard 0's replicas, and closed-loop clients
    whose ops are recorded as a real-time history. Two safety checks then
    fire over all shards: the Appendix A invariants
    ({!Mu.Invariants.check_all}) and linearizability of the recorded
    replies against the KV application's semantics ({!check}: one search
    in {!Linearizability.Make}, per key, so per shard). Isolation (§2.2,
    §8) follows: a read of a value never put to its key fits no state of
    the per-key model, so it always yields a {!witness}. A run is judged
    once, by {!verdict}; [mu_demo chaos] and [mu_demo verify] both read
    it. The same spec replays to the byte, traces included, so a
    [Modelcheck.Repro] bundle of {!spec_fields} is a complete
    reproduction. *)

type scripted_op = {
  s_think : int;  (** Virtual-ns pause before submitting this op. *)
  s_req : int;  (** Request id (unique per client; dedup identity). *)
  s_cmd : Apps.Kv_store.command;
}

type recorded = {
  r_proc : int;
  r_req : int;
  r_invoked : int;
  r_responded : int;  (** [max_int] = never answered (open interval). *)
  r_cmd : Apps.Kv_store.command;
  r_reply : Apps.Kv_store.reply option;  (** [None] = unanswered. *)
}

(** {1 The KV reply model}

    A recorded history is linearizable when a single sequential order,
    consistent with real time, gives every recorded reply exactly as the
    KV application returns it: a read sees the last put, [Deleted]
    asserts the key existed, [Not_found] that it did not. A write
    acknowledged [Stored] whose value no later read can observe (the
    injected-bug self-test, DESIGN.md §19) fails here even though every
    replica agrees — the Appendix A invariants are blind to it by
    construction. Unanswered reads are ignored (they observed nothing);
    unanswered writes and deletes may be linearized anywhere after
    invocation or — equivalently, since they always succeed — at the
    very end. *)

type witness = {
  wkey : string;  (** The failing key. *)
  wops : recorded list;
      (** Minimal non-conformant sub-history, by (invocation, response,
          proc, req): dropping any op the soundness guard allows makes
          the rest linearizable. *)
  wpending : recorded list;  (** Ops in [wops] never answered. *)
}

val check : recorded list -> bool
val witness : recorded list -> witness option
(** [None] iff {!check}. *)

val pp_witness : witness Fmt.t
(** The key, then one recorded op per indented line. *)

type clients =
  | Random of { clients : int; ops : int; think : int }
      (** [clients] per shard (shard [s]'s are procs [s·clients + 1 ..]),
          each submitting [ops] Puts/Gets on the {!keys_for} its shard,
          [think] virtual ns apart, drawn from a {!Sim.Rng.split} taken
          at fiber start. *)
  | Script of scripted_op list list
      (** One fiber per list (client [i] is proc [i + 1]) replaying its
          ops verbatim, each routed by key. *)

type spec = {
  seed : int64;
  config : Mu.Config.t;  (** Every group's config; [n] is [config.n]. *)
  shards : int;
  horizon : int;
      (** Virtual-ns bound on a stalled run; writes still pending there
          stay in the history with an open response interval. *)
  scenario : Faults.Scenario.t;
  clients : clients;
  inject : int;
      (** The KV application's lost-put self-test rate
          ({!Apps.Kv_store.smr_app}'s [lose_put_every]); 0 = off. *)
}

val spec : seed:int64 -> n:int -> Faults.Scenario.t -> spec
(** One group of [n] replicas on {!Mu.Config.default} with a 4096-slot
    log, 1 ms recycling and durable state (so [Restart] events recover
    from NVM); 4 random clients × 25 ops, no think time; a 2 s horizon;
    no injected bug. *)

type outcome = {
  spec : spec;
  completed : bool;  (** All clients finished before the horizon. *)
  ops : int;  (** Operations in the checked history. *)
  committed : int;  (** Sum over shards of the highest FUO reached. *)
  witness : witness option;
      (** Minimal failing sub-history; [None] iff {!check} on the record. *)
  record : recorded list;  (** Every op and reply, by (invocation, proc, req). *)
  violations : Mu.Invariants.violation list;
  crash : string option;
      (** ["fiber: exception"] when a fiber raised and stopped the run
          ({!Sim.Engine.Fiber_crash}); the run is then checked as it
          stood. *)
  rejoins : Mu.Smr.rejoin list;  (** Completed kill→restart→rejoin pipelines. *)
  shed : int;  (** Requests shed by a degraded leader's queue bound. *)
  degraded_ns : int;  (** Total quorum-lost window duration. *)
}

type verdict =
  | Pass
  | Not_conformant  (** Replies inconsistent with every KV order (a witness). *)
  | Invariant_violation  (** Appendix A failed on raw replica state. *)
  | Crash  (** A fiber raised and stopped the run. *)
  | Stall  (** Clients never finished before the horizon. *)

val verdict : outcome -> verdict
(** Most specific first: non-conformance (the outcome's witness), then
    invariant violations, then a crash, then a liveness stall. *)

val verdict_to_string : verdict -> string
val verdict_of_string : string -> verdict option
(** Stable strings for the repro bundle: ["pass"], ["not-conformant"],
    ["invariant-violation"], ["crash"], ["stall"]. *)

val passed : outcome -> bool
(** [verdict o = Pass]. *)

val pp_outcome : outcome Fmt.t
(** One line naming every failed check (a crash with its message); a
    linearizability witness follows on indented lines. *)

val inject : Sim.Engine.t -> Mu.Smr.t -> Faults.Scenario.t -> unit
(** Schedule the scenario over a running cluster: scenario host ids are
    the cluster's replica ids, re-resolved on every event (a restart
    replaces a replica and its host under the same id), and restarts go
    to {!Mu.Smr.restart_replica}. The one fault wiring: {!run} injects
    into shard 0 through it, and so does every faulted figure run. *)

val run : ?on_engine:(Sim.Engine.t -> unit) -> spec -> outcome
(** One run. [on_engine] sees the fresh engine before the cluster is
    built: the one hook observers attach through (tracer, provenance,
    telemetry sampler, online monitor, in that order). A shed reply is
    retried after 500 µs under the same invocation time. *)

val keys_for : shards:int -> shard:int -> count:int -> string array
(** The first [count] keys of a fixed candidate list (["a"], ["b"],
    ["c"], ...) that route to [shard] under {!Mu.Sharded.key_hash}. *)

(** {1 Spec codec} *)

val spec_fields : spec -> (string * Json.t) list
(** The whole spec as JSON object fields: seed, the config fields inline,
    shards, horizon, the random clients or the script, the scenario,
    inject. The spec half of a [Modelcheck.Repro] bundle. *)

val spec_of_json : Json.t -> (spec, string) result
(** Inverse of {!spec_fields} on an object; other fields are ignored. A
    missing field reads as its {!spec} default, except seed and scenario. *)

(** {1 Generated cases} *)

val cases : count:int -> ns:int list -> seed:int64 -> (spec * Sim.Rng.t) list
(** [count] generated cases, cluster sizes cycling through [ns] (non-empty,
    or [Invalid_argument]). Case [i] is the default {!spec} at a seed
    drawn from a root PRNG seeded with [seed], with a scenario generated
    from a PRNG created from that seed. The PRNG comes back positioned
    after the scenario, so a caller can draw the rest of the case (a
    history) from it: one number still replays the case. *)

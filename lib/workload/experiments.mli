(** Experiment drivers: one function per paper figure/table (see
    DESIGN.md's experiment index). Each driver builds a fresh simulated
    cluster, runs the workload, and returns the same statistics the paper
    plots. The bench harness ([bench/main.ml]) formats them next to the
    paper's numbers.

    The drivers share five private pieces: one warm-up-then-record
    latency loop ([measure]: replication, end-to-end and cross-check
    latency, the Disk-Paxos ablation), one closed-loop throughput driver
    ([closed_loop]: Fig. 7 and the shard ablation), one leader/monitor
    rig ([fd_run]: both detectors of the failure-detector ablation), one
    empty-app cluster boot ([empty_cluster], with [cross_check_server]
    for the Fig. 5 cross-checks), and one fault wiring, {!Chaos.inject},
    which {!Chaos.run} uses too. *)

type setup = {
  seed : int64;
  faults : Faults.Scenario.t option;
      (** When set, the scenario is injected over the Mu cluster of every
          cluster experiment (replication latency, fail-over); scenario
          host ids are replica ids. Experiments with private topologies
          (baselines, microbenchmarks) ignore it. *)
  on_engine : (Sim.Engine.t -> unit) option;
      (** The one observer hook: called on every engine {!run_sim}
          creates, before the experiment fiber spawns. Callers attach
          their observers here in the order tracer
          ([Trace.Tracer.attach]), provenance
          ({!Sim.Engine.set_provenance}), telemetry sampler
          ({!attach_sampler}), then their own (profiler, online monitor),
          the order {!Chaos.run}'s hook uses. With a tracer attached,
          fail-over rounds emit per-phase spans under category
          ["failover"]; with a registry attached, they record
          [failover_*_ns] histograms. Must not consume engine PRNG. *)
}

val default_setup : setup

val attach_sampler : Telemetry.Sampler.t -> Sim.Engine.t -> unit
(** Attach the sampler's registry to the engine ({!Sim.Engine.set_metrics}),
    open a new sampler epoch and spawn the fiber that ticks it on virtual
    time. Consumes no engine PRNG. Figure and chaos runs call it from
    their [on_engine] hook. *)

exception Unfinished of { scenario : string; at : int }
(** A faulted run that could not finish: its experiment fiber was still
    waiting at virtual time [at] under the named scenario (e.g. a
    measuring fiber parked on a killed leader). The cluster experiments
    bound a faulted run in virtual time, so it ends with this instead of
    running forever. *)

val run_sim : setup -> ?until:int -> (Sim.Engine.t -> 'a) -> 'a
(** Run one simulation to completion of [f]: a fresh engine seeded from
    the setup, handed to the setup's [on_engine] hook, [f] spawned as
    the experiment fiber, and the engine run (bounded by [until] when
    given). If [f] does not complete — a deadlock or an exhausted
    [until] budget — raises {!Unfinished} when the setup carries faults
    and [Failure] otherwise. Exposed so external drivers (e.g. the serving
    tier's surface sweep) compose with the same instrumentation contract
    as the figure experiments. *)

(** {1 Fig. 2 — permission-switch mechanisms vs log size} *)

type fig2_row = {
  log_size : int;  (** Bytes. *)
  qp_flags_us : float;  (** Median, microseconds. *)
  qp_restart_us : float;
  mr_rereg_us : float;
}

val fig2_permission_switch : setup -> samples:int -> sizes:int list -> fig2_row list

(** {1 Fig. 3 / Fig. 4 — replication latency} *)

val mu_replication_latency :
  setup ->
  samples:int ->
  payload:int ->
  attach:Mu.Config.attach_mode ->
  Sim.Stats.Samples.t
(** Mu's replication latency: the leader-side capture→commit span of one
    propose (standalone runs use [Standalone]; attached runs add the
    direct/handover capture cost, §7.1). *)

val baseline_replication_latency :
  setup -> samples:int -> system:[ `Dare | `Apus | `Hermes | `Hovercraft ] -> payload:int ->
  Sim.Stats.Samples.t
(** Replication latency of a comparison system on the same fabric. *)

(** {1 Fig. 5 — end-to-end client latency} *)

type e2e_system = Unreplicated | With_mu | With_apus | Dare_kv

val end_to_end_latency :
  setup -> samples:int -> app:Apps.Transport.kind -> system:e2e_system ->
  Sim.Stats.Samples.t
(** Client-observed request latency: transport legs + server-side capture,
    replication (if any) and application execution. *)

val herd_real : setup -> samples:int -> replicated:bool -> Sim.Stats.Samples.t
(** Client-to-client latency of the {e executable} HERD server
    ({!Apps.Herd}), optionally replicated with Mu in the Fig. 1
    composition — a cross-check of the calibrated transport model used by
    {!end_to_end_latency}. *)

val liquibook_real : setup -> samples:int -> replicated:bool -> Sim.Stats.Samples.t
(** Client latency of the {e executable} Liquibook service: the real
    matching engine behind the {!Apps.Erpc} layer, optionally replicated
    with Mu — the Fig. 5 panel 1 cross-check. *)

(** {1 Fig. 6 — fail-over time} *)

type failover_stats = {
  total : Sim.Stats.Samples.t;  (** Failure injection → new leader serving. *)
  detection : Sim.Stats.Samples.t;  (** Injection → new leader elected. *)
  switch : Sim.Stats.Samples.t;  (** Election → confirmed followers ready
                                     (permission switches + catch-up). *)
}

val failover : setup -> rounds:int -> failover_stats

val dare_failover : setup -> rounds:int -> Sim.Stats.Samples.t
(** Measured fail-over of the executable DARE election
    ({!Baselines.Dare_election}): pause the leader, time until a follower
    wins a term. The paper reports ~30 ms (§1). *)

(** {1 Fig. 7 — throughput vs latency} *)

type throughput_point = {
  batch : int;
  outstanding : int;
  ops_per_us : float;
  median_latency_ns : int;
  p99_latency_ns : int;
}

val throughput_point :
  setup -> requests:int -> batch:int -> outstanding:int -> throughput_point

val sharded_throughput : setup -> requests:int -> shards:int -> float
(** Aggregate throughput (ops/µs) of [shards] parallel Mu instances over
    commuting (per-shard-key) operations — the §8 extension. *)

(** {1 Ablations (DESIGN.md §6)} *)

val ablation_omit_prepare : setup -> samples:int -> Sim.Stats.Samples.t * Sim.Stats.Samples.t
(** (with omit-prepare, without): propose latency. *)

val mu_latency_persistence :
  setup -> samples:int -> persistent:bool -> Sim.Stats.Samples.t
(** Propose latency with or without the persistent-log extension (remote
    flush before ack — the durability the paper anticipates from
    RDMA-to-persistent-memory hardware, §1). *)

val ablation_permissions : setup -> samples:int -> Sim.Stats.Samples.t * Sim.Stats.Samples.t
(** (Mu one-sided write with permissions, Disk-Paxos-style write-then-read
    race detection): replication span per request. *)

type fd_result = {
  detector : string;
  detection_us : float;  (** Median detection latency after a real failure. *)
  false_positives : int;  (** Spurious failure declarations in a quiet run. *)
  observation_s : float;  (** Quiet-run length (simulated seconds). *)
}

val ablation_failure_detector : setup -> fd_result list
(** Pull-score (Mu, §5.1) vs a conventional push-heartbeat detector with
    1 ms and 10 ms timeouts, under identical network jitter. *)

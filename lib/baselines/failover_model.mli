(** Fail-over latency models for the comparison systems.

    The paper's introduction reports fail-over times of prior systems —
    "HovercRaft takes 10 milliseconds, DARE 30 milliseconds, and Hermes at
    least 150 milliseconds" — attributing them to conservative timeouts
    that must absorb network-latency variance (§1, §7.3). We model each as
    the sum of its published detection timeout and a reconfiguration term:

    - {b Hermes}: membership-lease expiry before a new coordinator may
      write (>= 150 ms).
    - {b HovercRaft}: Raft with aggressive 10 ms timeouts.

    Mu's measured fail-over (Fig. 6) is produced by the real protocol in
    {!Workload.Experiments.failover}, and DARE's by its RAFT-style
    election in {!Workload.Experiments.dare_failover}; these models exist
    to print the order-of-magnitude comparison next to them. *)

val hermes : Sim.Distribution.t
val hovercraft : Sim.Distribution.t

val sample_us : Sim.Distribution.t -> Sim.Rng.t -> float
(** One fail-over sample in microseconds. *)

(** APUS-style replication (Wang et al., SoCC'17; §8 of the Mu paper).

    APUS is a Paxos on RDMA that {e involves the follower CPUs on the
    critical path}: the leader RDMA-Writes the request into each
    follower's log; follower threads poll their logs, process the entry,
    and acknowledge with a two-sided Send that the leader receives. Two
    wire legs plus two CPU hand-offs per request make it ~4x slower than
    Mu (Fig. 4) and expose it to OS scheduling jitter on every replica —
    the source of its long tail ("99-percentile executions up to 20 µs
    slower", §7.1).

    Follower poll loops are modelled with the MR write-notification hook
    plus an explicit uniform poll-phase delay, rather than simulating
    every empty poll iteration. *)

val create : Common.t -> Common.engine
(** An APUS engine with node 0 as leader; spawns follower fibers. *)

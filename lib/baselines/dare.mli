(** DARE-style replication (Poke & Hoefler, HPDC'15; §8 of the Mu paper).

    Like Mu, DARE replicates with one-sided RDMA Writes from the leader.
    Unlike Mu, appending an entry takes {e separate, sequential} writes:
    the log entry itself, then the tail pointer of each replica's log, and
    a commit/apply pointer update — "which leads to more round-trips for
    replication" and, because the rounds serialize, their wire-latency
    variances add up (the tail-inflation effect discussed in §7.2).

    We model the three sequential one-sided rounds, each waiting for
    completion at a majority. *)

val create : Common.t -> Common.engine
(** A DARE engine with node 0 as leader. [replicate] must run in a fiber
    of node 0's host. *)

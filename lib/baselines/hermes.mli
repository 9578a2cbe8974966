(** Hermes-style replication (Katsarakis et al., ASPLOS'20; §8).

    Hermes is a broadcast-based, CPU-active protocol: a write coordinator
    sends {e invalidations} (INV) to all replicas, each replica's CPU
    processes the INV and acknowledges (ACK), and once {e all} replicas
    acked, the coordinator broadcasts {e validations} (VAL) that unblock
    reads. One round trip plus remote CPU involvement per write — faster
    than DARE/APUS but still ~2.7x Mu's single one-sided write (Fig. 4),
    and needing all (not a majority of) replicas to respond.

    VAL messages are off the measured critical path (reads at the
    replicas block on them, not the coordinator's write), so the span is
    measured up to the last ACK, as in the Hermes paper. *)

val create : Common.t -> Common.engine

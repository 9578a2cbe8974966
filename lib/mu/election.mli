(** Leader election via pull-score failure detection (§5.1).

    Every replica continually increments a heartbeat counter in its local
    background MR; here the counter is computed when it is read
    ({!Replica.settle_heartbeat}), so it costs no fiber and no event. For
    each peer, a monitor fiber RDMA-Reads the peer's
    counter every [fd_read_interval] and keeps a score: +1 when the counter
    advanced since the previous read, −1 otherwise, capped to
    [score_min, score_max]. A peer is declared failed when its score drops
    below [score_fail] and recovered when it rises above [score_recover]
    (hysteresis avoids oscillation).

    Because a slow network delays the {e reads} rather than the heartbeat,
    the effective timeout can be aggressive without false positives — the
    paper's key failure-detection insight.

    Leader rule: replica [i] takes [j] as leader if [j] has the lowest id
    among the replicas [i] considers alive (itself included).

    Fate sharing (§5.1, optional via {!Config.fate_sharing}): the
    counter stops advancing while the replication plane is stuck inside
    a propose call, so a wedged leader gets replaced. *)

val start : Replica.t -> on_role_change:(Replica.role -> unit) -> unit
(** Start the heartbeat counter and spawn the per-peer monitor and
    role-decision fibers.
    [on_role_change] fires from the role fiber whenever this replica's
    role flips. *)

val is_alive : Replica.t -> int -> bool
(** Whether this replica currently believes peer [id] to be alive. *)

val readmit : Replica.t -> int -> unit
(** [readmit t pid] lifts [pid]'s score to the cap and, if [t] suspects
    it, flips it alive through the same transition the monitor takes
    ("recover" instant, election span). The restart pipeline calls it on
    the survivors once a rejoined incarnation reaches log parity,
    releasing the floor score it pinned while rewiring. *)

val read_own_heartbeat : Replica.t -> int
(** This replica's heartbeat counter, settled to the current instant. *)

(** Log recycling (§5.3).

    The log is conceptually infinite but physically circular. Followers
    publish a {e log head} (first entry not yet executed) in their
    background MR; the leader periodically reads all heads, computes
    [minHead], and zeroes every slot below it — in follower logs via RDMA
    Writes on the replication QPs (it holds write permission) and locally —
    so recycled slots cannot present stale canaries when the log wraps.

    Only an established leader recycles: a new leader first finishes its
    catch-up/update steps, guaranteeing its FUO is at least every
    follower's (§5.3). The zeroing writes are fire-and-forget: their
    completions are consumed by the propose path's completion loop, which
    shares the replication CQ, decrements [Replica.recycler_outstanding]
    and counts errors with {!Metrics.recycler_error} before aborting the
    propose.

    Fault handling: a round is {e skipped} (watermark unchanged, counted
    by {!Metrics.recycle_skip}) when a log-head read fails on a confirmed
    peer, when any head read reports a permission error, or when
    mid-round this replica stops being the permission holder or a
    replication QP leaves RTS — all signs the
    leader's view may be stale, in which case zeroing could erase entries
    a live replica still needs. Only a non-confirmed peer whose NIC
    stopped answering (crashed under the §2.2 crash-stop model) is
    excluded from the minimum, which keeps recycling live with a dead
    replica. *)

val start : Replica.t -> unit
(** Spawn the recycling fiber (active only while this replica leads). *)

val recycle_once : Replica.t -> unit
(** One scan-and-zero round; exposed for tests. Must run in a fiber of the
    replica's host while it is an established leader. *)

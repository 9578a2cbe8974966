(** Permission management (§5.2).

    Each replica maintains the invariant that at most one replica at a time
    has write permission on its log. A would-be leader requests write
    access by RDMA-writing its request generation into the {e permission
    request array} of every replica's background MR; each replica's
    permission management thread spins on that array, handles requests one
    by one in requester-id order, revokes the current holder, grants the
    requester (fast-slow path: QP access flags first, QP restart on error —
    Fig. 2), and acks by RDMA-writing the generation into the requester's
    {e ack array}.

    Generations make a grant valid for at most one request: a leader that
    lost permission cannot observe a stale ack as a fresh grant (Appendix
    A.1, "permission can only be granted at most once per request"). *)

val start : Replica.t -> unit
(** Spawn the permission management fiber on this replica. *)

val request_permissions : Replica.t -> int64
(** Bump this replica's request generation and broadcast it: one RDMA
    Write per peer into their request arrays, plus a local write into our
    own (a leader also directs its own permission module to fence out the
    previous holder). Returns the generation to poll acks against. Must be
    called from a fiber of the replica's host. *)

val acked : Replica.t -> gen:int64 -> int list
(** Ids (possibly including our own) whose ack slot carries [gen] — read
    from local memory, no communication. *)

val pending_request : Replica.t -> (int * int64) option
(** The request the permission fiber would serve next: the lowest
    requester id whose generation in our request array exceeds the last
    one we granted it, with that generation. [None] when every request
    has been served. *)

val poll_interval : int
(** Virtual ns between scans of the request array. *)

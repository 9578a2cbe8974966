(** Permission-switching mechanisms and their cost model (§5.2, Fig. 2).

    RDMA offers three ways to grant/revoke a remote replica's write access;
    the paper measures all three (Fig. 2) and builds Mu's fast-slow path
    out of two of them:

    - {b QP access flags} ({!change_qp_flags}): ~120 µs, independent of MR
      size — but flipping flags with operations in flight "sometimes causes
      the QP to go into an error state".
    - {b QP state cycling} ({!Qp.reconnect}): reset → init → RTR → RTS,
      ~10× slower than the flags method, always safe.
    - {b MR re-registration} ({!rereg_mr}): cost grows with the region
      size, reaching ~100 ms for a 4 GiB log.

    All functions must be called from a fiber of the QP/MR owner's host and
    consume the mechanism's latency there (the permission management thread
    blocks on the NIC/driver, §5.2). *)

val change_qp_flags : Qp.t -> Verbs.access -> (unit, [ `Qp_error ]) result
(** Fast path. Fails (QP moves to ERR) with probability 1/2 when the
    remote peer has operations in flight at switch time. *)

val rereg_mr : Mr.t -> Verbs.access -> unit
(** Re-register an MR with new flags; cost scales with its size. *)

val fast_slow_switch : Qp.t -> Verbs.access -> [ `Fast | `Slow ]
(** Mu's permission switch (§5.2), and the path it took. A pair with
    either end out of RTS cannot take a flag change, so it goes straight
    to the slow path; otherwise try {!change_qp_flags} and on error fall
    back. The slow path is {!Qp.reconnect} followed by the flag update, so
    it also brings the requester's end back — when the cycle can
    complete; if not, both ends stay in ERR with the new flags. *)

(** Per-replica operation counters.

    Lightweight observability for experiments and debugging: every plane
    bumps its counters as it works, and harnesses can snapshot or print
    them (e.g. to see how many aborts a contention experiment caused, or
    how often the permission fast path fell back to a QP restart). *)

type t = {
  mutable proposes : int;  (** Propose calls started (establish, config entries). *)
  mutable commits : int;  (** Propose calls that returned. *)
  mutable aborts : int;  (** Proposes and leader windows that aborted (§4.1). *)
  mutable prepare_phases : int;  (** Prepare phases executed (not omitted). *)
  mutable accept_rounds : int;  (** Accept-phase write rounds. *)
  mutable catch_up_entries : int;  (** Entries copied in (Listing 5). *)
  mutable update_entries : int;  (** Entries pushed to followers (Listing 6). *)
  mutable followers_grown : int;  (** Stragglers admitted to the CF set (§4.2). *)
  mutable permission_requests : int;  (** Requests we broadcast. *)
  mutable permission_grants : int;  (** Grants we performed as responder. *)
  mutable perm_fast_path : int;  (** QP-flag switches that succeeded (§5.2). *)
  mutable perm_slow_path : int;  (** QP restarts (fallback or direct). *)
  mutable fd_reads : int;  (** Heartbeat counter reads issued. *)
  mutable entries_applied : int;  (** Entries injected into the app. *)
  mutable slots_recycled : int;  (** Log slots zeroed for reuse (§5.3). *)
  mutable recycle_skips : int;  (** Recycle rounds skipped: a log-head read
                                    failed on a confirmed peer, permission
                                    was in doubt, or the leader was being
                                    deposed mid-round. *)
  mutable recycler_errors : int;  (** Error completions on recycler
                                      operations (head reads and zeroing
                                      writes). *)
}

val create : unit -> t
val pp : t Fmt.t

val copy : t -> t
(** Independent snapshot; later mutation of the original is not seen. *)

val reset : t -> unit
(** Zero every counter in place. *)

val diff : t -> t -> t
(** [diff after before] — field-wise subtraction; with [before] a
    {!copy} taken earlier from the same live record, the result is the
    activity in between (e.g. the work done by one fail-over). *)

val total : t list -> t
(** Sum across replicas. [total [diff a b]] equals
    [diff (total [a]) (total [b])] field-wise. *)

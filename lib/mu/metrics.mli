(** Per-replica counters: the one place a replica reports what it did.

    Each protocol fact is one call. The ints below are always on: every
    plane bumps them as it works, harnesses read or print them, and
    they start from zero with each incarnation (a restart creates a new
    replica). A value created with a registry ([Replica.create] passes
    the engine's, {!Sim.Engine.set_metrics}) also resolves its
    [mu_*{replica}] instruments once; the calls below then update them
    with no lookup, and with no registry each is one option check. The
    instruments are find-or-create, so they accumulate across restarts.

    Some facts are only instruments: latencies, the FUO and recycle
    watermark, pull-scores, role changes and the crash-recovery edges.
    Two facts share a name and stay distinct: [catch_up_entries] counts
    entries a new leader copies in (Listing 5), while
    [mu_catch_up_entries_total] counts entries a rejoining replica pulls
    ({!rejoined}). *)

type instruments

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
  tel : instruments option;  (** [None] without a registry. *)
}

val create : ?reg:Telemetry.Registry.t -> ?id:int -> unit -> t
(** All zero; with [reg], also the instruments labelled [replica=id]
    (default 0). *)

val pp : t Fmt.t

(** {1 Facts with an int and an instrument} *)

val recycle_skip : t -> unit
(** [recycle_skips] and [mu_recycle_skips_total]. *)

val recycler_error : t -> unit
(** [recycler_errors] and [mu_recycler_errors_total]. *)

val recycled : t -> slots:int -> watermark:int -> unit
(** [slots_recycled] grows by [slots]; [mu_recycle_watermark] is set to
    the new watermark. *)

(** {1 Instrument-only facts} *)

val commit : t -> t0:int -> now:int -> upto:int -> since:int option -> unit
(** A commit through [upto] that began at [t0]: [mu_commit_apply_ns],
    [mu_fuo], and [mu_replication_latency_ns] from [since] when it ends a
    client-visible replication. *)

val score : t -> peer:int -> int -> unit
(** [mu_score{replica,peer}]: the pull-score this replica's failure
    detector assigns to [peer]. *)

val election : t -> unit
val demotion : t -> unit

val batch : t -> 'a list -> unit
(** The requests coalesced into one committed log entry: their number
    goes to [mu_batch_occupancy], a count histogram, not a latency. *)

(** {1 Crash recovery}

    [mu_degraded_ns] and [mu_rejoin_time_to_parity_ns] only record once a
    window closes or parity is reached, so a live monitor also gets the
    edges: [mu_quorum_lost] is 1 for the length of a degraded window, and
    [mu_restarts_total] is bumped the moment a restart begins
    (rejoin-in-flight = restarts minus completed parities). *)

val shed : t -> unit
(** A request refused by a degraded leader's queue bound. *)

val quorum_lost : t -> unit
val quorum_regained : t -> degraded_ns:int -> unit
val restart : t -> unit

val rejoined : t -> parity_ns:int -> entries:int -> unit
(** Log parity reached [parity_ns] after the restart, with [entries]
    pulled from the leader on the way. *)

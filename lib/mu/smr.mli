(** The SMR façade (Fig. 1): assembles the replication and background
    planes on every replica, captures client requests at the leader, and
    injects committed requests into every replica's application.

    Request flow on the leader: capture (attach-mode cost, §7.1) → stage
    into the RDMA buffer (memcpy, §7.4) → propose (one-sided replication,
    §4) → apply → respond. Followers replay committed entries into their
    application copies.

    One service loop: up to [max_outstanding] groups in flight, each of
    [doorbell] slots (one RDMA write per follower) of up to [max_batch]
    requests. The default window of one slot is the latency setup of
    Figs. 3–5; wider windows are the throughput setup of Fig. 7.

    Delivery guarantee: entries commit in log order and are injected
    exactly once per replica. A request whose leader aborts mid-propose is
    re-submitted by the service loop, so a request may commit {e twice}
    under leader change (at-least-once); applications needing exactly-once
    must deduplicate by request id, as is standard for SMR systems. *)

(** Application attached to each replica. *)
type app = {
  apply : bytes -> bytes;  (** Execute one request, return the response. *)
  snapshot : unit -> bytes;  (** Checkpoint for state transfer (§5.4). *)
  install : bytes -> unit;  (** Restore from a checkpoint. *)
}

val stateless_app : (bytes -> bytes) -> app
(** An app with no checkpointable state (snapshot returns empty). *)

type t

val create :
  Sim.Engine.t -> Sim.Calibration.t -> Config.t -> make_app:(int -> app) -> t
(** Build a cluster of [config.n] replicas, each running [make_app id]. No
    fibers are started until {!start}. *)

val start : ?client_service:bool -> t -> unit
(** Spawn all planes on every replica: heartbeat + monitors + role fiber
    (election), permission management, replayer, recycler, and the leader
    service loop. [client_service:false] omits the service loop — for
    harnesses (e.g. the standalone latency benches, §7.1) that drive
    {!Replication.propose} themselves. *)

val replicas : t -> Replica.t array
val replica : t -> int -> Replica.t

val leader : t -> Replica.t option
(** The replica currently acting as leader, if exactly one does. *)

val serving_leader : t -> Replica.t option
(** Like {!leader}, but ignores claimants whose host is paused or crashed
    (a failed ex-leader keeps its stale role until it runs again). When
    several running replicas claim the role — a partitioned minority
    replica elects itself and never hears the real leader — the claimant
    holding write permission on a majority of logs wins (Appendix A.1:
    each log records a single holder, so at most one claimant can). *)

val submit_async : ?retry:bool -> t -> bytes -> bytes Sim.Engine.Ivar.ivar
(** Enqueue a client request; the ivar is filled with the application
    response once the request commits and executes at the leader.
    [retry] (default true) enables client-side retransmission after a
    timeout, covering requests captured by a leader that then fails;
    throughput harnesses that generate their own load can disable it.

    When [config.queue_limit] is positive and the incoming queue is
    already at the bound — the signature of a quorum-lost leader parking
    requests — the request is {e shed}: the ivar fills immediately with
    the retryable-error sentinel and nothing is enqueued. *)

val is_retryable : bytes -> bool
(** Whether a response is the shed sentinel (clients should back off and
    retry; the request was never enqueued). The sentinel's first byte
    ['!'] is reserved: no application response starts with it. *)

val submit : t -> bytes -> bytes
(** {!submit_async} then block (must run inside a fiber). *)

val wait_live : t -> unit
(** Block until the cluster has an established leader that has committed
    at least one entry (fiber context). *)

val stop : t -> unit
(** Ask every replica's fibers to wind down. *)

(** {1 Membership (§5.4)} *)

val remove_replica : t -> id:int -> unit
(** Propose a configuration entry removing [id]. Once it commits, [id]
    stops executing and the others ignore it (fiber context). *)

val add_replica : t -> unit -> Replica.t
(** Add a fresh replica (next free id): propose the configuration entry,
    wire the newcomer with its own application object ([make_app id]),
    install an application checkpoint taken from a live follower (§5.4;
    the leader if none is live) through the same install as every other
    checkpoint, and start its planes (fiber context).

    Known simplification: replicas started before the newcomer joined do
    not spawn a failure-detector monitor for it. Because ids only grow,
    the newcomer is never anyone's leader candidate while unmonitored, so
    leader election is unaffected; it is fully monitored by any replica
    (re)started after the join. *)

(** {1 Crash recovery}

    With [config.durable_state] on, each replica's log and membership
    metadata live in simulated NVM ({!Sim.Nvm}) and survive a
    [kill_host]. {!restart_replica} boots a fresh incarnation under the
    same id and runs the rejoin pipeline: re-admission via a §5.4
    configuration entry, durable-log restore (truncating the
    accepted-but-undecided tail), checkpoint transfer when the durable
    prefix was recycled, bounded-rate catch-up from the leader
    ({!Recovery.Catchup}), and — only at exact log parity — plane
    start-up and confirmed-follower re-entry. *)

val restart_replica : t -> id:int -> unit
(** Restart replica [id] after its host was killed or its process
    stopped. Callable from scheduler context (e.g. a fault-injector
    callback): the pipeline runs on freshly spawned fibers. No-op if the
    old incarnation is still running or a restart is already in flight.
    Raises [Invalid_argument] for an unknown id. *)

(** One completed rejoin, restart → log parity (virtual ns). *)
type rejoin = {
  pid : int;
  restarted_at : int;
  parity_at : int;
  entries_pulled : int;  (** Entries copied from the leader's log. *)
  pull_rounds : int;  (** Bounded-rate catch-up rounds. *)
  recheckpoints : int;  (** Checkpoint re-transfers forced by recycling. *)
}

val rejoins : t -> rejoin list
(** Completed rejoins, oldest first. *)

val restarts_in_flight : t -> int
(** Restart pipelines currently running (admission, catch-up, …). *)

val shed_requests : t -> int
(** Requests refused with the retryable-error sentinel by the queue bound. *)

val retries_pending : t -> int
(** Submitted requests still waiting for their reply with a client
    retry armed. A pending retry is a slot in the cluster's retry ring,
    served by one timer event for the earliest deadline; a request
    stays reachable from its slot only until its reply lands. *)

val resends : t -> int
(** Client retransmissions so far: retry timers that found their
    request unanswered and sent it again. *)

val queue_depth : t -> int
(** Client requests currently parked in the incoming queue (submitted
    but not yet picked up by the leader service). *)

val degraded_windows : t -> int
val degraded_total_ns : t -> int
(** Count and total duration of completed quorum-lost windows in which a
    leader could not establish a majority of confirmed followers. *)

(** {1 Leader-side request costs (§7.1)} *)

val attach_cost : Sim.Calibration.t -> Config.attach_mode -> int
(** Ns the leader's CPU spends per batch to take requests from the
    application: none standalone, contention when they share a thread,
    one cache-coherence hop on handover. *)

val stage_cost : Sim.Calibration.t -> int -> int
(** Ns to copy one request of this many payload bytes into the log
    entry being built. *)

(** {1 Batch framing} — exposed for tests. *)

val encode_batch : bytes list -> bytes
val decode_batch : bytes -> bytes list option
(** [None] when the entry is a configuration entry rather than a batch. *)

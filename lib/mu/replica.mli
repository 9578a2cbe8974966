(** Per-replica state and cluster wiring (Fig. 1 of the paper).

    A replica owns:
    - a {e replication plane}: its consensus log MR and one RC QP per peer
      sharing one completion queue (§3.2);
    - a {e background plane}: a small always-readable/writable MR holding
      the heartbeat counter, the replayer's log-head, and the permission
      request/ack arrays (§5.1, §5.2), plus dedicated QPs per peer for
      failure detection, permission traffic and log recycling.

    The modules {!Election}, {!Permissions}, {!Replication}, {!Replayer}
    and {!Recycler} implement the protocol logic over this state; {!Smr}
    assembles them. *)

type role = Leader | Follower

module Itbl : Hashtbl.S with type key = int
(** Int-keyed tables for the per-peer and per-work-request state below. *)

(** Handles to one remote peer: our QP endpoints toward it and its
    exchanged memory-region keys.

    A pair in ERR leaves it only through {!Rdma.Qp.reconnect}, which two
    callers make: the permission granter's slow path
    ({!Rdma.Perm.fast_slow_switch}), for the [repl_qp] of the replica it
    grants, and the failure detector ({!Election}), for every pair of a
    peer it scores dead, once per read interval. Until then a non-RTS
    pair means "not yet": posts on it are flushed and the caller retries
    later. *)
type peer = {
  pid : int;
  repl_qp : Rdma.Qp.t;
  fd_qp : Rdma.Qp.t;
  fd_cq : Rdma.Cq.t;
  perm_qp : Rdma.Qp.t;
  perm_cq : Rdma.Cq.t;
  req_qp : Rdma.Qp.t;
  req_cq : Rdma.Cq.t;
  misc_qp : Rdma.Qp.t;
  misc_cq : Rdma.Cq.t;
  remote_log_mr : Rdma.Mr.t;
  remote_bg_mr : Rdma.Mr.t;
}

type t = {
  config : Config.t;
  durable_ns : int;
      (** The cluster's {!Sim.Nvm} namespace (see {!create_cluster}),
          folded into the owner id of this replica's durable regions. *)
  host : Sim.Host.t;
  id : int;
  log : Log.t;
  bg_mr : Rdma.Mr.t;
  repl_cq : Rdma.Cq.t;
  mutable peers : peer list;  (** Excludes self; sorted by id. *)
  (* --- leader election state (§5.1) --- *)
  mutable leader_estimate : int;
  scores : int Itbl.t;  (** Pull-score per peer id. *)
  alive : bool Itbl.t;
  last_hb : int Itbl.t;
  mutable role : role;  (** Change it with {!set_role}. *)
  mutable role_generation : int;  (** Bumped on every role change. *)
  (* --- permission state (§5.2) --- *)
  mutable perm_holder : int option;  (** Who may write my log. *)
  last_granted : int64 Itbl.t;  (** Per requester: last acked gen. *)
  mutable req_gen : int64;  (** My own request generation counter. *)
  (* --- replication-plane leader state (§4) --- *)
  mutable confirmed : int list;  (** Confirmed followers (peer ids). *)
  mutable need_new_followers : bool;
      (** Set when just elected or after an abort (Listing 2 line 7). *)
  mutable prop_num : int64;
  mutable skip_prepare : bool;  (** Omit-prepare optimization (§4.2). *)
  mutable wr_seq : int;
  mutable tag_seq : int;  (** Last tag {!fresh_tag} handed out. *)
  inflight : (int * int) Itbl.t;  (** wr_id → (peer id, tag). *)
  mutable propose_started_at : int option;
      (** For fate sharing (§5.1). Change it with {!set_propose_started_at}. *)
  mutable hb_started : bool;  (** Set by {!start_heartbeat}. *)
  mutable hb_value : int;
      (** The heartbeat counter as of the last {!settle_heartbeat}. *)
  mutable hb_next : int;
      (** The first instant of the counter's grid not yet counted. *)
  mutable hb_last : int;
      (** The last instant counted ([min_int] before the first), so a
          pause and a resume at one instant count it once. *)
  mutable election_span : int;
      (** Provenance span open from the moment this replica suspects its
          leader estimate until it takes over (or the suspicion clears);
          0 when no election is in flight or provenance is off. *)
  (* --- execution --- *)
  mutable applied : int;  (** Log head: entries injected into the app. *)
  mutable on_commit : int -> bytes -> unit;
  mutable checkpoint : src:int -> dst:int -> int;
      (** Install a checkpoint of replica [src] on replica [dst] (§5.4)
          and return [dst]'s log head after it; set by {!Smr} to its one
          checkpoint install, which first zeroes the slots of [dst] that
          the checkpoint skips (at most one lap below it). A leader takes
          one for itself or gives one to a follower when the entries
          between them were recycled; {!Smr.add_replica} and the rejoin
          pipeline use the same install. The default installs nothing
          and returns 0. *)
  mutable zeroed_up_to : int;  (** Recycling low-water mark (§5.3). *)
  mutable recycler_outstanding : int;
      (** Zeroing writes posted by {!Recycler} whose completions have not
          been reaped yet (the propose path reaps them; see
          {!recycler_tag}). Bounds the junk a deposed leader can leave on
          the shared CQ. *)
  metrics : Metrics.t;
      (** This incarnation's counters, with the engine's registry
          instruments when it has one. *)
  mutable removed : bool;
      (** Membership: removed from the group (§5.4). Set it with {!halt}. *)
  mutable stop : bool;  (** Shut this replica's fibers down. Set it with {!halt}. *)
  (* --- parked pollers (see {!Sim.Host.park}) --- *)
  replay_bell : Sim.Host.doorbell;
      (** The replayer's: rung by any store into the log while a follower,
          and by every role change. *)
  perm_bell : Sim.Host.doorbell;
      (** The permission manager's: rung by stores into the request array
          and by membership changes. *)
  ack_bell : Sim.Host.doorbell;
      (** A leader waiting for permission acks: rung by stores into the ack
          array and by membership changes. *)
}

(** {1 Background-plane memory layout} *)

val bg_hb_offset : int
val bg_log_head_offset : int
val bg_req_offset : int -> int
(** Offset of the permission-request slot written by replica [id]. *)

val bg_ack_offset : int -> int
(** Offset of the permission-ack slot written by replica [id]. *)

val bg_size : n:int -> int

(** {1 Construction} *)

val create_cluster :
  Sim.Engine.t -> Sim.Calibration.t -> Config.t -> t array
(** Create [config.n] replicas on fresh hosts and fully connect their
    planes. Replica ids are 0..n-1; replica 0 is the expected first leader
    (lowest id, §5.1). With [config.durable_state] on, the cluster takes
    the engine's next NVM namespace ({!Sim.Nvm.fresh_namespace}): the
    first durable cluster on an engine gets 0, the groups of one
    {!Sharded} deployment their shard indices. Otherwise it is 0. *)

val create_unwired :
  Sim.Engine.t -> Sim.Calibration.t -> Config.t -> ns:int -> id:int -> t
(** A replica not yet connected to anyone (for membership changes and
    restarts), in durable namespace [ns]. *)

val wire : t -> t -> unit
(** Connect the planes of two replicas (idempotent per pair). When
    durable state is on, both replicas' member lists are re-persisted. *)

val iter_qps : (Rdma.Qp.t -> unit) -> peer -> unit
(** Apply to our ends of the five pairs toward this peer: [repl_qp],
    [fd_qp], [perm_qp], [req_qp] and [misc_qp]. *)

val unwire : t -> pid:int -> unit
(** Tear down this replica's connection to peer [pid]: every QP toward it
    is force-disconnected (both endpoints go to error, Velos-style), the
    peer record is dropped, and per-peer volatile state (permission
    grants, heartbeats, scores) is cleared so a rebooted incarnation of
    [pid] can be {!wire}d afresh. No-op if [pid] is not a peer. *)

(** {1 The heartbeat counter (§5.1)}

    The counter at {!bg_hb_offset} is computed when it is read; no fiber
    increments it. It advances by one at the instant {!start_heartbeat}
    runs and every [hb_increment_interval] after, while the host is
    [Running], the replica is neither [stop] nor [removed] and, with
    [fate_sharing], the replication plane is not stuck (a propose call
    in flight for more than [fate_sharing_stuck_after]). After a pause
    the first increment falls at the resume instant and the grid
    restarts there; each instant counts at most once, so a pause that
    counted a tick at the resume instant leaves the next increment one
    interval later. After a crash the counter is frozen. Any load of the
    word (a local read or a monitor's RDMA Read, through
    {!Rdma.Mr.on_read}) settles it up to the current instant first, and
    so does every change of an input: the host's liveness (through
    {!Sim.Host.on_liveness}), [stop], [removed] and
    [propose_started_at]. *)

val settle_heartbeat : t -> unit
(** Bring the stored counter up to the current instant; ticks at this
    instant count. *)

val start_heartbeat : t -> unit
(** Start the counter's grid at the current instant ({!Election.start}
    calls it once). *)

val set_propose_started_at : t -> int option -> unit
(** The one writer of [propose_started_at]. *)

val halt : ?removed:bool -> t -> unit
(** Set [stop] (and [removed] when [removed] is true), which freezes the
    counter. *)

(** {1 Accessors and helpers} *)

val recycler_tag : int
(** Reserved [inflight] tag for the recycler's zeroing writes on the
    replication CQ. Their completions are reaped by the propose path,
    which decrements [recycler_outstanding] and records errors in
    {!Metrics.recycler_error}. *)

val config_tag : int
(** Reserved [inflight] tag for membership-configuration writes. *)

val group_tag : int -> int
(** [group_tag first]: the [inflight] tag of a windowed accept group
    whose first slot is [first]. Below the reserved tags, so never a
    {!fresh_tag}. *)

val engine : t -> Sim.Engine.t
val cal : t -> Sim.Calibration.t

val phase : t -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [phase t name f] runs [f] as a protocol phase of [t]: a ["mu"] trace
    span and a provenance span, both named [name] and attributed to [t]'s
    host. The trace span ends even when [f] raises. *)

val peer : t -> int -> peer
val peer_opt : t -> int -> peer option
val fresh_wr_id : t -> int

val fresh_tag : t -> int
(** A new positive [inflight] tag for one propose or catch-up round. *)

val is_leader : t -> bool

val set_role : t -> role -> unit
(** The one place a role changes: a parked replayer must notice, since a
    follower commits by piggybacking and a leader does not. *)

val majority : t -> int
(** A majority of the current group (peers + self), accounting for
    removals. *)

val fresh_prop_num : t -> above:int64 -> int64
(** Next proposal number for this replica: unique across replicas
    (multiples of n plus id) and strictly greater than [above]. *)

val apply_committed : t -> unit
(** Inject every decided-but-unapplied entry below the local FUO into the
    application and advance the log head (shared by leader and replayer
    paths so nothing is applied twice). *)

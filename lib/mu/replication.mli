(** The replication plane: Mu's consensus algorithm (§4, Listings 2–6).

    The leader is the only replica that communicates; followers are silent.
    A propose call:

    + on first use (or after an abort), builds the {e confirmed followers}
      set by requesting write permission from every replica and waiting
      for a majority of acks (growing the set with stragglers that answer
      within a grace period, §4.2 "Growing confirmed followers"); then
      brings itself up to date with its highest-FUO confirmed follower
      (Listing 5) and brings the followers up to date (Listing 6);
    + runs the prepare phase — read each confirmed follower's minProposal,
      pick a higher proposal number, write it to their minProposals, read
      their slot at the current FUO, and adopt the value with the highest
      proposal if any (Listing 2) — unless the {e omit-prepare}
      optimization is active (§4.2): once a prepare found only empty slots,
      subsequent proposes go straight to the accept phase;
    + runs the accept phase: one RDMA Write of the entry (with canary) into
      each confirmed follower's log, waiting for completion at a majority.

    Any failed operation — which, by the permission invariant, means this
    leader was deposed or a follower crashed — raises {!Aborted}; the next
    propose call rebuilds the confirmed-followers set.

    With omit-prepare active the cost of a propose is exactly one parallel
    RDMA Write to a majority: the paper's headline ~1.3 µs path. *)

exception Aborted of string

val propose : Replica.t -> bytes -> int
(** [propose r value] replicates [value]; returns the log index at which
    [value] itself was committed (the call re-commits any adopted values
    it discovers on the way, per Listing 2). Must run in a fiber of [r]'s
    host, and [r] must believe itself leader. Raises {!Aborted} on any
    failed operation or lost permission. *)

(** {1 Lower-level helpers for the windowed fast path (§7.4)}

    These expose the accept-phase plumbing so that {!Smr} can keep several
    outstanding slot writes in flight. They assume omit-prepare is active. *)

val commit :
  ?within:((unit -> unit) -> unit) -> ?since:int -> Replica.t -> upto:int -> unit
(** Every leader commit: advance the FUO to [upto], apply, emit the trace's
    [fuo] counter and record [mu_fuo], [mu_commit_apply_ns] and, from
    [since], [mu_replication_latency_ns]. [within] wraps FUO move and apply. *)

val stragglers : Replica.t -> int list
(** Peers whose permission ack landed after the confirmed-follower set was
    settled (§4.2), a local read. {!propose} admits them. *)

val post_accept : Replica.t -> tag:int -> idx:int -> imgs:Bytes.t list -> unit
(** Write the non-empty entry images [imgs] into the contiguous slot range
    starting at [idx] locally, then post {e one} RDMA Write per confirmed
    follower covering the whole range (slot images concatenated at slot
    stride), tagging each peer's single completion with [tag]. A single
    image is a plain one-slot accept. The range must not cross the
    circular-log wrap boundary — callers cap group size at
    [Log.slots - (idx mod Log.slots)]. With [persistent_log], the flush
    cost is paid once for the group. *)

val post_fuo : Replica.t -> Replica.peer -> tag:int -> int -> unit
(** [post_fuo r p ~tag fuo] posts one RDMA Write of [fuo] into peer [p]'s
    log header, its completion tracked under [tag] (Listing 6's FUO
    update, and the final bump that tells a removed replica its [Remove]
    committed). *)

val remote_majority : Replica.t -> int
(** Number of remote completions that constitute a majority with self. *)

val drain_completion : ?timeout:int -> Replica.t -> (int * int) option
(** Consume one completion from the replication CQ: [Some (peer, tag)] on
    success, [None] on timeout (blocks without one) or a stale completion.
    Raises {!Aborted} on an error completion. *)

val wait_log_space : Replica.t -> idx:int -> unit
(** Block while slot [idx] would overrun the circular log (§5.3 — "the log
    is never completely full"); the recycler frees space. *)

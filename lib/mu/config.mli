(** Static configuration of a Mu deployment. *)

type attach_mode =
  | Standalone
      (** No application: the leader generates payloads and proposes in a
          tight loop (the paper's "standalone" runs, §7.1). *)
  | Direct
      (** Application and replication share a thread — no handover cost,
          but they contend (used by Liquibook and HERD, §7.1). *)
  | Handover
      (** Application thread hands requests to a separate replication
          thread: one cache-coherence miss (~400 ns) per request (used by
          Memcached and Redis, §7.1). *)

type t = {
  n : int;  (** Number of replicas (the paper evaluates 3-way, §7). *)
  log_slots : int;  (** Circular-log capacity in slots (§5.3). *)
  value_cap : int;  (** Maximum bytes per log entry (batch payload). *)
  attach : attach_mode;
  max_batch : int;  (** Requests coalesced into one entry (§7.4). *)
  max_outstanding : int;  (** Concurrent in-flight proposes (§7.4). *)
  recycle_interval : int;  (** Period of the log-recycling scan (§5.3). *)
  recycle_slack : int;  (** Slots kept free so the log is never full (§5.3). *)
  fate_sharing : bool
      (** Leader-election thread stops heartbeating when the replication
          thread is stuck (§5.1). The paper describes but does not
          implement this; we implement it behind this flag. *);
  fate_sharing_stuck_after : int
      (** A propose in flight for longer than this is considered stuck. *);
  disable_omit_prepare : bool;
      (** Ablation switch: run the prepare phase on every propose even
          when it could be omitted (§4.2). *)
  checksum_canary : bool;
      (** Use checksum canaries instead of flag canaries, dropping the
          left-to-right DMA assumption (§4.2). *)
  persistent_log : bool;
      (** Register consensus logs in (simulated) persistent memory: every
          log write pays the RDMA flush cost before acking, making Mu
          durable — the extension the paper anticipates once
          RDMA-to-persistent-memory hardware ships (§1). *)
  durable_state : bool;
      (** Back each replica's log and membership metadata with simulated
          NVM ({!Sim.Nvm}) owned by the engine, so they survive a
          {!Sim.Host.kill_host} and a rebooted replica restores them
          before rejoining. Write-through by construction — the log's
          memory region is registered over the NVM bytes — so enabling it
          costs no extra virtual time or randomness. *)
  queue_limit : int;
      (** Bound on the leader's parked request queue while it cannot
          commit (quorum lost): past this many queued requests, new
          submissions are answered with a retryable error instead of
          enqueued. [0] disables the bound. *)
  doorbell : int;
      (** Log slots the leader may coalesce into a single doorbell-style
          RDMA write per peer: up to this many already-queued entries are
          gathered, written locally, and replicated with one wire write
          covering the contiguous slot range, amortizing per-write NIC
          cost and committing the whole group at once (Rabia-style
          batching over the §7.4 pipeline). [1] (the default) disables
          doorbell batching and keeps the classic one-write-per-slot
          paths byte-identical. *)
}

val default : t
(** 3 replicas, 8192 slots, 1 KiB values, standalone, no batching. *)

type value = Int of int | Bool of bool | Attach of attach_mode

val fields : (string * (t -> value) * (t -> value -> t option)) list
(** Every field of {!t} by name, in declaration order, with its getter
    and setter (which rejects a value of the wrong kind): the one table a
    config serializer walks, e.g. the chaos repro's writer and parser. *)

val majority : t -> int
(** ⌊n/2⌋ + 1. *)

val validate : t -> unit
(** Raises [Invalid_argument] on inconsistent settings. *)

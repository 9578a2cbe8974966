(** Shard router: key→shard mapping plus per-shard serving counters.

    Routing uses {!Mu.Sharded.key_hash}, so a router created with the
    same shard count as a {!Mu.Sharded.t} agrees with its
    [shard_of_key] by construction. *)

type shard_stats = {
  mutable submitted : int;  (** Requests admitted and sent to the shard. *)
  mutable committed : int;  (** Requests that got an application response. *)
  mutable shed : int;
      (** Admission refusals plus requests that exhausted their retries
          on a shed reply. *)
  mutable retried : int;  (** Back-off retries after a shed reply. *)
  mutable inflight : int;  (** Currently outstanding requests. *)
  mutable max_inflight : int;
  latency : Sim.Stats.Samples.t;  (** Completion latency, ns. *)
}

type t

val create : shards:int -> t

val route : t -> string -> int
(** [Mu.Sharded.key_hash key mod shards]. *)

val stats : t -> int -> shard_stats

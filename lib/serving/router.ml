(* Key -> shard routing plus per-shard serving counters. The hash is
   Mu.Sharded.key_hash, so the router agrees with the shard mapping of
   the cluster it fronts by construction. *)

type shard_stats = {
  mutable submitted : int;
  mutable committed : int;
  mutable shed : int;
  mutable retried : int;
  mutable inflight : int;
  mutable max_inflight : int;
  latency : Sim.Stats.Samples.t;
}

type t = { shards : int; stats : shard_stats array }

let create ~shards =
  if shards < 1 then invalid_arg "Router.create: need at least one shard";
  {
    shards;
    stats =
      Array.init shards (fun _ ->
          {
            submitted = 0;
            committed = 0;
            shed = 0;
            retried = 0;
            inflight = 0;
            max_inflight = 0;
            latency = Sim.Stats.Samples.create ();
          });
  }

let route t key = Mu.Sharded.key_hash key mod t.shards
let stats t i = t.stats.(i)

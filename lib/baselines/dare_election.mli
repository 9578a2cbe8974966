(** DARE's leader election — the RAFT-style protocol Mu's §8 contrasts
    with its own: "DARE has a heavier leader election protocol than Mu's,
    similar to that of RAFT, in which care is taken to ensure that at most
    one process considers itself leader at any point in time."

    Structure (after Poke & Hoefler, HPDC'15):

    - The leader pushes periodic {e heartbeats} (term + commit index) into
      each follower's control region with RDMA Writes.
    - Followers run randomized {e election timeouts}; because heartbeats
      are pushed over a network with latency variance, the timeout must be
      conservative — tens of milliseconds — which is exactly why DARE's
      fail-over sits near 30 ms while Mu's pull-score detector needs only
      ~600 µs (§1, §7.3).
    - On timeout a follower becomes a {e candidate}: it increments its
      term, writes vote requests into every control region, and the
      replicas' CPUs answer by writing their vote back (a vote is granted
      to the first candidate of a new term). A majority of votes makes the
      candidate leader; a heartbeat with a higher term demotes stale
      leaders and candidates.

    This is a faithful executable skeleton of the election (terms, votes,
    majorities, randomized timeouts, demotion), sufficient to {e measure}
    DARE's fail-over time on the same fabric Mu runs on; DARE's log
    replication rounds live in {!Dare}. *)

type role = Leader | Candidate | Follower

type t
(** One DARE replica group. *)

val create : ?election_timeout_ms:float -> Common.t -> t
(** Run DARE election over an existing cluster. The election timeout
    (default 30 ms) is drawn per node from 0.75–1.25 times it; a leader
    heartbeats every 5 ms, other nodes check every 1 ms. Spawns one
    protocol fiber per node. *)

val role : t -> int -> role
val term : t -> int -> int
val current_leader : t -> int option
(** The unique live leader, if exactly one node claims leadership. *)

val measure_failover : t -> rounds:int -> Sim.Stats.Samples.t
(** Repeatedly pause the current leader, measure until another node wins
    an election, then resume and let the group stabilize. Must run in a
    fiber. *)

(** The replayer: the follower role of the replication plane (§3.1, §4.2).

    Followers are silent — they only watch their local log. The replayer
    fiber:

    - validates new entries via the canary byte before trusting them
      (§4.2 "Replayer");
    - advances the local FUO by {e commit piggybacking}: entry [i] is
      known committed once entry [i+1] exists, because the leader starts
      index [i+1] only after [i] is committed (§4.2 "Followers commit in
      background", Listing 7) — or earlier, when a new leader bumps the
      FUO directly during its update-followers step;
    - injects committed entries into the application and publishes the new
      log head for the recycler (§5.3).

    The FUO self-advance runs only while the replica is a follower; a
    leader manages its own FUO inside propose. Application of committed
    entries is shared with the leader path through
    {!Replica.apply_committed}, so an entry is never injected twice. *)

val start : Replica.t -> unit
(** Spawn the replayer fiber. *)

exception Ring_full of { replica : int; fuo : int }
(** Raised by {!self_advance_fuo} when more than [log_slots -
    recycle_slack] consecutive slots past the FUO are filled: more than
    a leader may run ahead of a follower's log head, so the ring holds
    entries nobody recycled and the walk would never end. *)

val self_advance_fuo : Replica.t -> bool
(** One round of Listing 7: advance the FUO over complete entries whose
    successor exists, at most [log_slots - recycle_slack] slots; raises
    {!Ring_full} past that. Returns whether progress was made. Exposed
    for unit tests. *)

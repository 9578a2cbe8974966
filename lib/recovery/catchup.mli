(** Bounded-rate log catch-up driver for a rejoining replica.

    Listing 5's read-and-copy loop, driven by the replica that is behind:
    pull missed slot images from the current leader in batches of
    [batch], installing and committing each contiguous prefix, idling
    [idle_ns] after every full batch so recovery traffic cannot starve
    the replication hot path. A backlog under one batch is pulled again
    at once, without an idle, so the driver converges while the leader
    keeps committing. Runs until the local FUO reaches the leader's (log
    parity) or [stopped] turns true.

    Written against closures — the caller supplies the actual RDMA reads,
    slot decoding and apply logic — so the loop is unit-testable without
    a cluster. *)

type pull_result =
  | Entry of bytes
  | Recycled
      (** The leader recycled this slot (§5.3); the driver calls
          [recheckpoint] and re-reads its position at once, without
          idling. *)
  | Unreachable  (** Transient failure; the round ends, retried after [idle_ns]. *)

type progress = {
  mutable entries : int;
  mutable rounds : int;
  mutable recheckpoints : int;
}

type outcome = Parity of progress | Stopped of progress

val run :
  batch:int ->
  idle_ns:int ->
  idle:(int -> unit) ->
  target:(unit -> int option) ->
  fuo:(unit -> int) ->
  pull:(int -> pull_result) ->
  install:(int -> bytes -> unit) ->
  commit:(int -> unit) ->
  recheckpoint:(unit -> unit) ->
  stopped:(unit -> bool) ->
  unit ->
  outcome
(** [idle] sleeps attributed virtual time (the rate bound); [target]
    returns the current leader's FUO ([None] while leaderless); [fuo]
    the local FUO; [pull idx] one remote slot image; [install] stores it
    locally; [commit idx] advances the local FUO to [idx] (exclusive)
    and applies; [recheckpoint] jumps state forward via a fresh
    snapshot after an entry was recycled under us. *)

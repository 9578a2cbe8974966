(* Bounded-rate log catch-up for a rejoining replica.

   The rejoiner drives its own recovery (Listing 5's read-and-copy loop,
   run by the replica that is behind instead of the leader): read the
   leader's FUO, pull missed slot images one batch at a time over the
   always-readable replication QP, install and apply them, then idle
   after every full batch. The idle is the rate bound — catch-up shares
   the leader's NIC with the replication hot path, so an unthrottled
   reader would inflate commit tail latency exactly when the cluster is
   busiest. Once the backlog is under one batch the reader closes it
   without idling, so it converges on a leader that keeps committing.

   The driver is written against closures so it can be unit-tested
   without a cluster and so the caller owns all protocol details (which
   QP to read, how to decode a slot, what "apply" means). *)

type pull_result =
  | Entry of bytes  (** The slot image at this index. *)
  | Recycled
      (** The leader no longer holds this entry (§5.3 recycling moved
          past it): pulling cannot make progress, a fresh checkpoint is
          needed. *)
  | Unreachable  (** Read failed (leader change, fault); retry next round. *)

type progress = {
  mutable entries : int;  (** Slot images installed and committed. *)
  mutable rounds : int;  (** Pull batches issued. *)
  mutable recheckpoints : int;  (** Times a recycled entry forced a new checkpoint. *)
}

type outcome = Parity of progress | Stopped of progress

let run ~batch ~idle_ns ~idle ~target ~fuo ~pull ~install ~commit ~recheckpoint ~stopped ()
    =
  if batch < 1 then invalid_arg "Catchup.run: batch must be >= 1";
  let p = { entries = 0; rounds = 0; recheckpoints = 0 } in
  (* Commit the contiguous prefix [start, idx) pulled so far. *)
  let flush ~start idx =
    if idx > start then begin
      commit idx;
      p.entries <- p.entries + (idx - start)
    end
  in
  let rec loop () =
    if stopped () then Stopped p
    else
      match target () with
      | None ->
        (* No leader in sight (election in progress): wait, don't spin. *)
        idle idle_ns;
        loop ()
      | Some l when fuo () >= l -> Parity p
      | Some l ->
        let start = fuo () in
        let upto = min l (start + batch) in
        (* True when the round ended in a recheckpoint. *)
        let rec pull_batch idx =
          if idx >= upto then (flush ~start idx; false)
          else
            match pull idx with
            | Entry img ->
              install idx img;
              pull_batch (idx + 1)
            | Recycled ->
              flush ~start idx;
              p.recheckpoints <- p.recheckpoints + 1;
              recheckpoint ();
              true
            | Unreachable -> flush ~start idx; false
        in
        let recycled = pull_batch start in
        p.rounds <- p.rounds + 1;
        (* Idle after a full batch (the rate bound) or a round that fell
           short of [upto] (a failed read). A backlog under one batch is
           closed at once: idling there would let a leader that commits
           during the idle stay ahead for ever. A round that ended in a
           recheckpoint pulled nothing past it, so it has no rate to
           bound. *)
        let reached = fuo () in
        if (not recycled) && (reached - start >= batch || reached < upto) then idle idle_ns;
        loop ()
  in
  loop ()

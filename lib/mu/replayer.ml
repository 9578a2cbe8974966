exception Ring_full of { replica : int; fuo : int }

let () =
  Printexc.register_printer (function
    | Ring_full { replica; fuo } ->
      Some (Printf.sprintf "Replayer.Ring_full(replica %d, fuo %d)" replica fuo)
    | _ -> None)

(* Follower log-poll period when idle, ns. *)
let poll = 1_000

(* Slot [fuo] is decided once [fuo + 1] is filled: the leader would not
   have started [fuo + 1] otherwise (commit piggybacking). The leader
   never runs more than [log_slots - recycle_slack] slots ahead of the
   slowest follower's log head (§5.3), so a longer run of filled slots
   means the ring is full of entries nobody recycled; walking it would
   never end. *)
let self_advance_fuo t =
  let log = t.Replica.log in
  let cfg = t.Replica.config in
  let bound = cfg.Config.log_slots - cfg.Config.recycle_slack in
  let start = Log.fuo log in
  let rec go fuo =
    if Log.slot_filled log (fuo + 1) then begin
      if fuo - start >= bound then raise (Ring_full { replica = t.Replica.id; fuo });
      go (fuo + 1)
    end
    else fuo
  in
  let fuo = if Log.slot_filled log start then go start else start in
  if fuo > start then Log.set_fuo log fuo;
  fuo > start

(* A poll that finds nothing parks until the log is stored into (as a
   follower) or the role changes, and resumes on its 1 µs grid. *)
let start t =
  Sim.Host.spawn t.Replica.host ~name:"replayer" (fun () ->
      let rec loop () =
        if t.Replica.stop || t.Replica.removed then ()
        else begin
          Sim.Host.arm t.Replica.replay_bell;
          let advanced =
            if t.Replica.role = Replica.Follower then self_advance_fuo t else false
          in
          let before = t.Replica.applied in
          Replica.apply_committed t;
          let progressed = advanced || t.Replica.applied > before in
          if progressed then Sim.Host.check t.Replica.host
          else
            Sim.Host.park t.Replica.replay_bell ~period:poll;
          loop ()
        end
      in
      loop ())

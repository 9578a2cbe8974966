let self_advance_fuo t =
  let log = t.Replica.log in
  let progressed = ref false in
  let continue_ = ref true in
  while !continue_ do
    let fuo = Log.fuo log in
    match Log.read_slot log fuo, Log.read_slot log (fuo + 1) with
    | Some _, Some _ ->
      (* Entry [fuo] is decided: the leader would not have started
         [fuo+1] otherwise (commit piggybacking). *)
      Log.set_fuo log (fuo + 1);
      progressed := true
    | Some _, None | None, _ -> continue_ := false
  done;
  !progressed

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
            Sim.Host.park t.Replica.replay_bell ~period:t.Replica.config.Config.replayer_poll;
          loop ()
        end
      in
      loop ())

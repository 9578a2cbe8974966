(* Turn a declarative scenario into scheduled mutations of the engine's
   fault state. Host-targeted actions go through the [hosts] lookup (the
   harness knows which host backs which replica id); link and permission
   faults go to the engine's fabric directly. *)

let with_host hosts pid f = match hosts pid with Some h -> f h | None -> ()

let apply e ~hosts ~restart action =
  let fabric = Sim.Engine.fabric e in
  match action with
  | Scenario.Pause pid -> with_host hosts pid Sim.Host.pause
  | Scenario.Resume pid -> with_host hosts pid Sim.Host.resume
  | Scenario.Stop_process pid -> with_host hosts pid Sim.Host.stop_process
  | Scenario.Kill_host pid -> with_host hosts pid Sim.Host.kill_host
  | Scenario.Partition (a, b) -> Sim.Fabric.partition fabric a b
  | Scenario.Block { src; dst } -> Sim.Fabric.block fabric ~src ~dst
  | Scenario.Unblock { src; dst } -> Sim.Fabric.unblock fabric ~src ~dst
  | Scenario.Delay { src; dst; ns } -> Sim.Fabric.set_delay fabric ~src ~dst ns
  | Scenario.Loss { src; dst; p } -> Sim.Fabric.set_loss fabric ~src ~dst p
  | Scenario.Dup { src; dst; p } -> Sim.Fabric.set_dup fabric ~src ~dst p
  | Scenario.Heal -> Sim.Fabric.heal fabric
  | Scenario.Restart pid -> restart pid
  | Scenario.Perm_fail { pid; forced } ->
    Sim.Fabric.force_perm_failure fabric ~pid forced

(* First-class instant events per injection: a stable event name per
   action kind plus structured target args, so Perfetto can line faults up
   with spans (and `--explain` can window fail-overs) instead of
   parsing pretty-printed text. *)
let action_event = function
  | Scenario.Pause pid -> ("fault_pause", [ ("pid", string_of_int pid) ])
  | Scenario.Resume pid -> ("fault_resume", [ ("pid", string_of_int pid) ])
  | Scenario.Stop_process pid -> ("fault_stop_process", [ ("pid", string_of_int pid) ])
  | Scenario.Kill_host pid -> ("fault_kill_host", [ ("pid", string_of_int pid) ])
  | Scenario.Partition (a, b) ->
    let side l = String.concat "," (List.map string_of_int l) in
    ("fault_partition", [ ("a", side a); ("b", side b) ])
  | Scenario.Block { src; dst } ->
    ("fault_block", [ ("src", string_of_int src); ("dst", string_of_int dst) ])
  | Scenario.Unblock { src; dst } ->
    ("fault_unblock", [ ("src", string_of_int src); ("dst", string_of_int dst) ])
  | Scenario.Delay { src; dst; ns } ->
    ( "fault_delay",
      [ ("src", string_of_int src); ("dst", string_of_int dst); ("ns", string_of_int ns) ]
    )
  | Scenario.Loss { src; dst; p } ->
    ( "fault_loss",
      [ ("src", string_of_int src); ("dst", string_of_int dst); ("p", Fmt.str "%g" p) ] )
  | Scenario.Dup { src; dst; p } ->
    ( "fault_dup",
      [ ("src", string_of_int src); ("dst", string_of_int dst); ("p", Fmt.str "%g" p) ] )
  | Scenario.Heal -> ("fault_heal", [])
  | Scenario.Restart pid -> ("fault_restart", [ ("pid", string_of_int pid) ])
  | Scenario.Perm_fail { pid; forced } ->
    ( "fault_perm_fail",
      [ ("pid", string_of_int pid); ("forced", if forced then "1" else "0") ] )

let install e ~hosts ~restart (s : Scenario.t) =
  List.iter
    (fun { Scenario.at; action } ->
      Sim.Engine.schedule e ~at (fun () ->
          (* Annotate the injection itself so dashboards and Perfetto
             traces show where faults begin and end. *)
          if Sim.Engine.traced e then begin
            let name, targs = action_event action in
            Sim.Engine.trace_instant e ~cat:"fault"
              ~args:
                (targs
                @ [
                    ("scenario", s.Scenario.name);
                    ("action", Fmt.str "%a" Scenario.pp_action action);
                  ])
              name
          end;
          apply e ~hosts ~restart action))
    s.Scenario.events

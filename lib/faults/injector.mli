(** Scenario execution over a live engine.

    Scheduling happens up front ({!install} before {!Sim.Engine.run}); each
    event then fires at its virtual time, mutating the engine's
    {!Sim.Fabric} or the targeted {!Sim.Host}. When tracing is on, every
    injection emits an instant event in category ["fault"], so injected
    faults are visible in Perfetto next to the protocol's own spans. *)

val install :
  Sim.Engine.t ->
  hosts:(int -> Sim.Host.t option) ->
  restart:(int -> unit) ->
  Scenario.t ->
  unit
(** [install e ~hosts s] schedules every event of [s]. [hosts] maps a
    scenario host id to its simulated host; host-targeted events whose id
    resolves to [None] are silently skipped (link faults need no
    lookup). [restart] handles {!Scenario.Restart} events — rebooting the
    named host is a protocol-level operation (fresh process, durable
    restore, rejoin) the harness owns, so the injector only dispatches the
    id. It is required: a harness that dropped restarts would run a
    different scenario than the one it names. *)

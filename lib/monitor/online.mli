(** Online monitor orchestrator.

    [attach engine sampler] subscribes SLO evaluation to the sampler's
    virtual-time ticks: a window closes on the first tick at or past
    each [window_ns] boundary (default: the sampler interval, i.e.
    every tick), every rule is stepped, and state transitions are
    recorded in the {!Log}, emitted onto the trace ring as
    [cat="alert"] instants (only when tracing is on), and handed to
    {!on_alert}.

    The monitor consumes no PRNG and schedules no engine events of its
    own — it rides the sampler fiber — so attaching it never perturbs
    the protocol schedule, and equal-seed monitored runs produce
    byte-identical logs. *)

type t

val attach :
  ?window_ns:int -> ?rules:Rules.spec list -> Sim.Engine.t -> Telemetry.Sampler.t -> t
(** The sampler must already have its epoch open (an [on_engine] hook
    runs [Workload.Experiments.attach_sampler], which opens it, before
    attaching the monitor); ticks from later
    epochs — a shared sampler re-attached to a newer engine — are
    ignored. [rules] defaults to {!Rules.defaults}. *)

val log : t -> Log.t
val firing : t -> string list

val windows : t -> int
(** Windows evaluated so far. *)

val on_alert : t -> (Log.entry -> unit) -> unit
(** Called on every firing/clearing edge, at the virtual time of the
    window close (the live-dashboard hook). *)

val on_window : t -> (Slo.window -> Rules.t list -> unit) -> unit
(** Called after every window evaluation with the closed window and the
    (already stepped) rules. *)

(** Simulated host: a machine running one replica process.

    A host models the CPU-side behaviour that the paper's evaluation
    depends on: pinned threads whose compute takes virtual time, rare OS
    descheduling events ("in rare cases, the leader process is descheduled
    by the OS for tens of microseconds", §7.3), and failure injection.

    Failure modes, matching §7.3 and the crash-failure model of §2.2:
    - {!pause}/{!resume}: the process is delayed (the paper's fail-over
      experiment injects failures this way). Its NIC keeps serving one-sided
      operations; its heartbeat counter stops advancing.
    - {!stop_process}: the process crashes. Registered memory stays pinned
      and remotely accessible, but no fiber of this host runs again.
    - {!kill_host}: the machine dies; its NIC stops responding and remote
      operations targeting it fail after the RC transport timeout. *)

type t

type liveness =
  | Running
  | Paused  (** Delayed: fibers block at their next {!cpu} call. *)
  | Process_stopped  (** Process crashed; memory still served by the NIC. *)
  | Host_dead  (** Machine crashed; NIC unreachable. *)

val create : Engine.t -> Calibration.t -> id:int -> name:string -> t
val engine : t -> Engine.t
val calibration : t -> Calibration.t
val id : t -> int
val name : t -> string
val rng : t -> Rng.t
val liveness : t -> liveness

val nic_reachable : t -> bool
(** The NIC answers remote operations ([Running], [Paused] or
    [Process_stopped]). *)

val process_alive : t -> bool
(** Fibers of this host make progress ([Running] or [Paused]). *)

val spawn : t -> name:string -> (unit -> unit) -> unit
(** Spawn a fiber belonging to this host. The body should call {!cpu} (or
    {!idle}) regularly; that is where pauses and crashes take effect. *)

val cpu : t -> int -> unit
(** Consume [ns] of CPU. Adds occasional scheduling jitter; blocks while the
    host is paused; parks forever if the process is stopped or the host is
    dead. Must be called from a fiber. *)

val idle : t -> int -> unit
(** Sleep [ns] without consuming CPU (no jitter), still honouring pause and
    crash states on wake-up. *)

val check : t -> unit
(** Honour pause/crash state without consuming time. *)

val pause : t -> unit
val resume : t -> unit
val stop_process : t -> unit
val kill_host : t -> unit

val on_liveness : t -> (liveness -> unit) -> unit
(** [on_liveness t f] calls [f next] at every transition of [t] made by
    the four functions above, just before it happens: {!liveness} still
    reads the old state and [next] is the new one. A value computed from
    the host's liveness over time (Mu's heartbeat counter) settles
    itself up to the transition instant here. Hooks run in the order
    they were added. *)

(** {1 Parked pollers}

    A fiber that busy-polls memory every [period] ns can park instead
    of sleeping when a poll finds nothing to do. Parking schedules no
    event; the fiber wakes only when its doorbell is rung (by a store
    into the memory it watches, see {!Rdma.Mr.watch}), at the first
    instant of its old poll grid — the park instant plus a multiple of
    [period] — at or after the ring. Since a poll observes only memory,
    the skipped polls are exactly those that would have seen no change,
    and the woken poll runs at the instant the busy loop would have
    noticed the store. Pause and crash behave as for {!idle}: pausing
    the host wakes each parked poller at its next grid tick, where it
    blocks until {!resume} and then polls at the resume instant. *)

type doorbell

val doorbell : t -> doorbell
(** A fresh doorbell for one poller of this host. It starts rung, so
    the first {!park} polls again after one period. *)

val arm : doorbell -> unit
(** Call at the start of each poll: rings from here on mean the poll may
    have missed a store. *)

val ring : doorbell -> unit
(** A watched store happened now. Wakes the parked poller at its next
    grid instant; otherwise only marks the doorbell rung. Ignored for a
    crashed process. *)

val park : ?until:int -> doorbell -> period:int -> unit
(** After a poll that found nothing to do: if the doorbell was rung
    since {!arm}, sleep [period] as the busy loop did; otherwise suspend
    until a ring, or until the first grid instant past [until] when
    given. Honours pause and crash states like {!idle}. Must be called
    from a fiber of the doorbell's host. *)

(** Declarative fault scenarios.

    A scenario is a named schedule of virtual-time fault events against a
    simulated cluster: host failures in the paper's model (§2.2 crash-stop,
    §7.3 pauses), link-level faults (partitions, extra delay, loss,
    duplication — applied to the engine's {!Sim.Fabric}), and forced
    permission-switch failures. Scenarios serialize to JSON ({!to_string} /
    {!of_string}) so a failing chaos run can be replayed from its repro
    file, and {!generate} derives random — but liveness-safe — scenarios
    from a seed. *)

type action =
  | Pause of int  (** {!Sim.Host.pause}: delayed, NIC keeps serving. *)
  | Resume of int
  | Stop_process of int
      (** Clean process halt: the replica process exits but the machine —
          and its NIC — stay up, so registered memory remains remotely
          readable and durable state is intact on disk. *)
  | Kill_host of int
      (** Machine crash: the whole host dies, volatile state is lost and
          the NIC becomes unreachable (outstanding verbs time out). Only
          durable (simulated-NVM) state survives. *)
  | Partition of int list * int list
      (** Symmetric partition: block both directions between the sides. *)
  | Block of { src : int; dst : int }  (** Directed (asymmetric) cut. *)
  | Unblock of { src : int; dst : int }
  | Delay of { src : int; dst : int; ns : int }  (** 0 clears. *)
  | Loss of { src : int; dst : int; p : float }  (** 0 clears. *)
  | Dup of { src : int; dst : int; p : float }  (** 0 clears. *)
  | Heal  (** Clear every link fault (not forced permission failures). *)
  | Perm_fail of { pid : int; forced : bool }
      (** Force the permission fast path to fail on [pid] (§7.3). *)
  | Restart of int
      (** Reboot a host previously taken down by {!Stop_process} or
          {!Kill_host}: a fresh process comes up on the same id, restores
          its durable state and rejoins the cluster via §5.4 membership,
          catching up from the leader's log. Only valid after a stop or
          kill of the same host ({!validate} rejects anything else). *)

type event = { at : int  (** Virtual time, ns. *); action : action }
type t = { name : string; events : event list }

val pp_action : action Fmt.t

val validate : n:int -> t -> (unit, string) result
(** Check every event against a cluster of [n] hosts: ids in range, no
    self-loop links, probabilities in [0,1], non-negative times. Also
    walks the schedule in firing order and rejects a {!Restart} of a host
    that is not down at that point (never stopped/killed, or already
    restarted). *)

(** {1 JSON} *)

val to_json : t -> Json.t
val to_string : t -> string

val of_json : Json.t -> (t, string) result
val of_string : string -> (t, string) result

(** {1 Named scenarios}

    Written against a fresh cluster, whose initial leader is replica 0
    (elections pick the lowest alive id). *)

val crash_leader : n:int -> t
(** Pause the leader at 5ms (the paper's fail-over injection, §7.3),
    resume at 25ms. *)

val partition_leader : n:int -> t
(** Symmetric partition of the leader from everyone at 5ms; heal at 25ms. *)

val kill_restart : n:int -> t
(** Kill the initial leader's host at 5ms, reboot it at 25ms: fail-over,
    then durable-state restore, §5.4 re-admission and log catch-up to
    parity under traffic. *)

val named : string list

val by_name : string -> n:int -> t option
(** The scenarios above by their [name] (["crash-leader"],
    ["partition-leader"], ["kill-restart"]), plus three reached only by
    name: ["lossy-fabric"] (20% loss leader→followers and 5µs extra
    delay on the return links from 3ms, healed at 40ms),
    ["restart-backlog"] (the leader's process stopped at 1ms and
    rebooted at 6ms, before any entry is recycled, so its rejoin pulls
    the whole outage backlog) and ["quorum-loss"] (a majority of the
    followers killed at 5ms, one rebooted at 10ms). *)

(** {1 Coverage}

    Aggregate statistics over a batch of (typically generated) scenarios,
    so a sweep can report which fault classes it actually exercised —
    every action kind is listed, explicitly at zero when unexercised, so
    a silently-dead branch of the generator is visible in the log rather
    than hidden by omission. *)

type coverage = {
  scenarios : int;
  action_counts : (string * int) list;
      (** One entry per action kind, in a fixed order, including zeros. *)
  partition_shapes : (string * int) list;
      (** Partition side-size shapes, e.g. [("1|2", 4)], sorted. *)
  crashes : int;  (** stop_process + kill_host events. *)
  restarts : int;
}

val coverage : t list -> coverage

val restart_fraction : coverage -> float
(** Restarts over crashes (0 when no crashes): how much of the crash
    budget was crash-{e recovery} rather than crash-stop. *)

val pp_coverage : coverage Fmt.t
(** A header, then one line per action kind, partition shapes and the
    restart fraction, in a vertical box. *)

(** {1 Shrinking} *)

val drop_event : t -> int -> t option
(** [drop_event t i] removes the [i]-th event of [t.events] (listing
    order); [None] if out of range. Used by the modelcheck shrinker —
    callers must re-{!validate}, since dropping a stop or kill can orphan
    a later restart. *)

(** {1 Random scenarios} *)

val generate : Sim.Rng.t -> n:int -> horizon:int -> t
(** A random scenario over [0, horizon * 3/4], replayable from the PRNG's
    seed. Generated scenarios are liveness-safe: at most [(n-1)/2] hosts
    are out at once (a crash consumes the budget, but a crash paired with
    a {!Restart} hands its slot back once the host reboots), every pause
    has a resume, every partition is healed, every probabilistic link
    fault is cleared, so a run that keeps submitting eventually commits.
    At [n = 1] a window holds at most a forced permission failure. *)

(** Shared plumbing for the comparison systems (§7.1, §8).

    A fully-connected mini-cluster on the same simulated RDMA fabric as
    Mu: one host per node, one registered buffer per node, one RC QP pair
    per node pair with full remote access (none of the baselines uses
    dynamic permissions the way Mu does). Node 0 acts as leader /
    coordinator in the latency experiments, as in the paper's setup. *)

type t = {
  engine : Sim.Engine.t;
  cal : Sim.Calibration.t;
  hosts : Sim.Host.t array;
  mrs : Rdma.Mr.t array;
  qps : Rdma.Qp.t array array;  (** [qps.(i).(j)]: endpoint at [i] toward [j]. *)
  cqs : Rdma.Cq.t array;  (** One per node; node [i] is the only consumer. *)
  mutable wr_seq : int;  (** Last [wr_id] {!write_to} posted. *)
}

val create : Sim.Engine.t -> Sim.Calibration.t -> n:int -> mr_size:int -> t
val n : t -> int
val majority : t -> int

val write_to : t -> src:int -> dst:int -> data:Bytes.t -> off:int -> unit
(** Post a one-sided Write of [data] into node [dst]'s buffer (fiber of
    node [src]'s host). *)

val await_successes : t -> node:int -> count:int -> unit
(** Consume [count] successful completions from a node's CQ; raises
    [Failure] on an error completion. *)

(** A baseline replication engine: returns the measured replication span
    (ns) for one request. *)
type engine = { name : string; replicate : Bytes.t -> int }

val with_telemetry : t -> engine -> engine
(** If the cluster's simulation engine has a metrics registry attached,
    wrap [replicate] to record each span into
    [baseline_replication_latency_ns{system}]. Identity otherwise. *)

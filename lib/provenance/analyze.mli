(** Post-mortem analysis over a reconstructed span tree.

    Phase attribution is computed over {b sync} spans only: they nest
    strictly per fiber, so per-span exclusive times telescope and
    {!phase_sum} of {!phases} equals the root span's duration exactly
    (when all sync descendants are closed). Detached spans are surfaced
    separately via {!peer_ios}. *)

type phase_row = {
  phase : string;  (** span name, e.g. ["propose"], ["accept"] *)
  total : int;  (** summed exclusive virtual ns across the subtree *)
  count : int;  (** spans contributing *)
}

val phases : Tree.t -> Tree.span -> phase_row list
(** Exclusive-time rows for [root]'s sync subtree, in first-visit
    (pre-order) order — deterministic. *)

val phase_sum : phase_row list -> int

(** Detached descendant spans carrying a ["peer"] arg: the per-follower
    RDMA write/ack spans — attributes quorum stragglers to a peer. *)
type peer_io = {
  peer : int;
  op : string;  (** e.g. ["write_send"] *)
  issued : int;
  acked : int;  (** -1 while open *)
  status : string;  (** completion status, or ["open"] *)
}

val peer_ios : Tree.t -> Tree.span -> peer_io list

val requests : Tree.t -> Tree.span list
(** All spans named ["request"], ascending id. *)

val top_outliers : Tree.t -> k:int -> Tree.span list
(** Slowest [k] closed requests, slowest first (ties by id). *)

(** Leader-epoch timeline, from the cat=["mu"] ["leader"] instants (present
    whenever tracing is on, independent of provenance). *)
type epoch = { ets : int; epid : int; gen : int }

val leader_timeline : Sim.Probe.event list -> epoch list

(** {2 Fail-over forensics} *)

type outcome =
  | Ok  (** picked up once, applied once, replied *)
  | Retried  (** client resent or the leader requeued it, but applied once *)
  | Duplicated  (** applied at more than one distinct log slot *)
  | Lost  (** never replied within the run *)

val outcome_name : outcome -> string

type req_report = {
  rid : int;
  rpid : int;
  submitted : int;
  replied : int option;
  retries : int;  (** ["client_retry"] points *)
  requeues : int;  (** ["requeue"] points *)
  pickups : int;  (** ["pickup"] points *)
  slots : int list;  (** distinct log slots applied at, ascending *)
  verdict : outcome;
}

val request_reports : Tree.t -> req_report list

(** Disruption windows: ["establish"] spans plus ["election"] spans that
    ended in a takeover. False alarms are excluded; elections still open
    at end of run count only with [include_open] (stalled runs — a
    completed run can carry a harmless open suspicion of a crashed
    non-leader). *)
type window = { wname : string; wpid : int; wstart : int; wfinish : int }

val windows : Tree.t -> horizon:int -> include_open:bool -> window list
(** Open windows are clamped to [horizon] (end of run). *)

val open_across : horizon:int -> window list -> req_report -> bool
(** Did the request's [submitted, replied] interval overlap any window? *)

(** Injectable fabric faults.

    Every engine owns one [Fabric.t] (like its {!Probe.t}): a table of
    directed link faults keyed by [(src host id, dst host id)] plus a set
    of hosts whose permission-switch fast path is forced to fail. The
    RDMA layer consults it on every post; with no faults installed that
    costs one empty-hashtable check, and — crucially for determinism —
    no random draw, so fault-free runs consume exactly the random
    streams they did before this module existed.

    Faults are {e directed}: blocking [src -> dst] leaves [dst -> src]
    untouched, which is how asymmetric partitions (a leader that can
    write but not hear acks) are expressed. The fault-injection library
    ([lib/faults]) drives this table from declarative scenarios. *)

type fault = {
  mutable blocked : bool;  (** Packets never get through: RC retransmits
                               until the transport timeout fires. *)
  mutable extra_delay : int;  (** Added to the leg's wire time, ns. *)
  mutable loss : float;  (** Per-attempt drop probability; the simulated
                             NIC retries a bounded number of times, each
                             retry adding a retransmission delay. *)
  mutable dup : float;  (** Duplicate-delivery probability. Under RC the
                             responder discards duplicates by PSN, so a
                             duplicate only costs extra NIC/ack time. *)
}

type t

val create : unit -> t

val find : t -> src:int -> dst:int -> fault option
(** The fault installed on the directed link, if any. O(1), allocation
    free when the table is empty. *)

val block : t -> src:int -> dst:int -> unit
val unblock : t -> src:int -> dst:int -> unit

val set_delay : t -> src:int -> dst:int -> int -> unit
(** Extra one-way delay in ns; 0 clears. Raises on negative values. *)

val set_loss : t -> src:int -> dst:int -> float -> unit
(** Per-attempt loss probability; 0 clears. Raises outside [0,1]. *)

val set_dup : t -> src:int -> dst:int -> float -> unit
(** Duplicate probability; 0 clears. Raises outside [0,1]. *)

val partition : t -> int list -> int list -> unit
(** [partition t a b] blocks both directions between every host in [a]
    and every host in [b] (a symmetric partition). *)

val heal : t -> unit
(** Remove every link fault (blocks, delays, loss, duplication). Forced
    permission failures are {e not} cleared; see
    {!force_perm_failure}. *)

val force_perm_failure : t -> pid:int -> bool -> unit
(** Force (or stop forcing) the permission-switch fast path
    ([Rdma.Perm.change_qp_flags]) to fail on host [pid], driving Mu onto
    the slow path (§7.3's permission-switch failure experiments). *)

val perm_failure_forced : t -> pid:int -> bool

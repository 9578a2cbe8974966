(** Reliable-Connection queue pairs with one-sided Read/Write.

    Semantics modelled after InfiniBand RC, which Mu's correctness argument
    leans on (§4, Appendix A):

    - {b FIFO}: operations posted on a QP arrive at the responder, apply to
      memory, and complete at the requester in posting order.
    - {b Permission enforcement at the responder}: an operation is allowed
      only if the responder QP is in RTR/RTS, its access flags permit the
      opcode, and the target MR permits it and is valid and in bounds.
      A denied operation completes with [Remote_access_error] and moves
      {e both} QPs to ERR — so a deposed leader cannot write and learns it.
    - {b Error flushing}: posting on a non-RTS QP completes immediately
      with [Flushed].
    - {b Transport timeout}: if the responder NIC is unreachable (dead host
      or partitioned link), the operation completes with
      [Operation_timeout] after the RC timeout, and the QP moves to ERR.
    - {b One-sidedness}: a paused or even crashed {e process} still serves
      incoming operations — only {!Sim.Host.kill_host} stops the NIC. This
      is precisely the property Mu's pull-score failure detector exploits.
    - {b Inlining}: payloads up to the inline threshold are copied at post
      time; larger payloads incur an extra NIC DMA fetch (§6, §7.1).

    Posting functions must be called from a fiber of the owning host; they
    consume the work-request posting cost and return immediately (the
    operation proceeds asynchronously; await the CQ for the outcome). *)

type t

val create : Sim.Host.t -> cq:Cq.t -> t
(** A fresh QP in RESET with no access granted. *)

val connect : t -> t -> unit
(** Connect two QPs (both move to RTS). Does not change access flags. *)

val host : t -> Sim.Host.t
val peer : t -> t option
val state : t -> Verbs.qp_state

val pair_rts : t -> bool
(** Both ends of the pair are in RTS: the pair carries work. *)

val access : t -> Verbs.access
(** What the {e remote} peer may do to this host's memory via this QP. *)

val set_access : t -> Verbs.access -> unit
(** Instantaneous flag update; the timing of permission switches is
    modelled in {!Perm}. *)

val set_state : t -> Verbs.qp_state -> unit

val reconnect : t -> unit
(** The only way out of ERR: cycle both ends of the pair through reset →
    init → RTR → RTS (§5.2, Fig. 2's slow path). Both ends leave their
    state at once, so operations arriving during the cycle are denied;
    the calibrated [perm_qp_restart] time is charged once, on this end's
    host, so call it from a fiber of that host. Both ends return to RTS
    only if, when the cycle ends, both NICs are reachable and the link
    carries both ways; otherwise both stay in ERR and the caller tries
    again later. Access flags are kept. A reconnect of a pair that is
    already cycling, or that {!disconnect} retired, does nothing. A
    caller whose process dies mid-cycle leaves the pair cycling until
    {!disconnect} replaces it. *)

val disconnect : t -> unit
(** Move both endpoints to ERR for good: the pair is being replaced, and
    {!reconnect} never brings it back. Used when a host reboots: its
    surviving peers tear down the stale connections and establish fresh
    QPs to the new incarnation (QP re-establishment, as in Velos'
    connection recovery). *)

val outstanding : t -> int
(** Posted but not yet completed work requests on this QP. *)

val set_link_up : t -> bool -> unit
(** Partition injection: when down, operations in either direction time
    out. *)

val post_write :
  t -> wr_id:int -> src:Bytes.t -> src_off:int -> len:int -> mr:Mr.t -> dst_off:int -> unit
(** One-sided RDMA Write of [len] bytes into the remote region [mr] at
    [dst_off]. [mr] must belong to the peer's host. *)

val post_zero : t -> wr_id:int -> len:int -> mr:Mr.t -> dst_off:int -> unit
(** An RDMA Write of [len] zero bytes into [mr] at [dst_off]: the same
    cost, faults and random draws as {!post_write} of [len] bytes, with
    no source buffer. Log recycling uses it. *)

val post_read :
  t -> wr_id:int -> dst:Bytes.t -> dst_off:int -> len:int -> mr:Mr.t -> src_off:int -> unit
(** One-sided RDMA Read of [len] bytes from the remote region [mr]; data
    lands in [dst] when the completion is delivered. *)

(** {1 Two-sided Send/Receive}

    Unused by Mu itself (§2.3) but needed by two-sided comparison systems.
    A Send consumes the oldest posted Receive at the responder; if none is
    posted, the RC transport retries (RNR) until one appears. The receiver
    gets a [`Recv] completion carrying the payload length; sending more
    than the buffer holds breaks the connection. *)

val post_recv : t -> wr_id:int -> dst:Bytes.t -> dst_off:int -> max_len:int -> unit
val post_send : t -> wr_id:int -> src:Bytes.t -> src_off:int -> len:int -> unit

val posted_recvs : t -> int
(** Receive buffers currently posted. *)

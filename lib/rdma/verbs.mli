(** Common types of the simulated RDMA verbs API (§2.3 of the paper).

    We model Reliable Connection (RC) queue pairs, memory regions with
    access flags, one-sided Read and Write, completion queues, and
    two-sided Send/Receive. Mu itself uses only Reads and Writes ("because
    of their lower latency", §2.3); Send/Receive exists for the two-sided
    comparison systems (APUS). *)

type access = { remote_read : bool; remote_write : bool }
(** Remote access rights. Local access is always allowed. *)

val access_none : access
val access_ro : access
val access_rw : access

(** QP states, as in ibverbs. Only RTS can post; only RTR/RTS accept
    incoming operations; ERR flushes everything (§5.2). *)
type qp_state = Reset | Init | Rtr | Rts | Err

(** Work-completion status. [Flushed] is returned for work posted to (or
    pending on) a QP in the ERR state — this is how a deposed leader
    observes that it lost write permission. *)
type wc_status =
  | Success
  | Remote_access_error  (** Responder denied the operation (permissions,
                             bounds, invalidated MR). *)
  | Operation_timeout  (** Responder NIC unreachable; fires after the RC
                           transport timeout. *)
  | Flushed  (** QP was in ERR at post time or failed while in flight. *)

val pp_wc_status : wc_status Fmt.t

type wc = {
  wr_id : int;
  kind : [ `Write | `Read | `Send | `Recv ];
  status : wc_status;
  byte_len : int;  (** Bytes transferred ([`Recv]: payload received). *)
}
(** Work completion: identifies the work request and its outcome. *)

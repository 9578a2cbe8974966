(** An in-memory key-value store with a compact binary command codec.

    This is the application kernel behind the paper's three replicated
    key-value stores (HERD, Memcached, Redis — §7); they differ only in
    the client transport ({!Transport}), not in the service logic.

    Commands carry a client-assigned request id; the store remembers the
    last id applied per client and turns duplicates into no-ops, giving
    exactly-once semantics on top of the SMR layer's at-least-once
    delivery (see {!Mu.Smr}).

    The session contract: each client's request ids increase, and a
    client has one request outstanding at a time. A request whose id is
    at or below the client's last applied id is a duplicate (a
    retransmission, possibly overtaken by the client's next request): it
    is not executed and returns the reply recorded for the client's last
    request. Sessions are part of the state, so they survive a
    checkpoint ({!snapshot}/{!restore}). *)

type t

val create : unit -> t

type command =
  | Get of { key : string }
  | Put of { key : string; value : string }
  | Delete of { key : string }

type reply =
  | Value of string
  | Not_found
  | Stored
  | Deleted

val pp_command : command Fmt.t
val pp_reply : reply Fmt.t

val apply : t -> command -> reply
(** Execute a command directly (no dedup). *)

val apply_dedup : t -> client:int -> req_id:int -> command -> reply
(** Execute with duplicate suppression: a [req_id] at or below the
    client's last applied id returns the recorded reply without
    re-executing. *)

val size : t -> int
val find : t -> string -> string option

(** {1 Wire codec} *)

val encode_command : ?client:int -> ?req_id:int -> command -> Bytes.t
val decode_command : Bytes.t -> (int * int * command) option
(** Returns [(client, req_id, command)]. *)

val encode_reply : reply -> Bytes.t
val decode_reply : Bytes.t -> reply option

(** {1 SMR integration} *)

val smr_app : ?lose_put_every:int -> unit -> Mu.Smr.app
(** A replica application: decodes commands, applies them with dedup, and
    supports checkpoint/restore for membership changes (§5.4).

    [lose_put_every] is a deliberate replicated-state-machine bug for the
    modelcheck self-test (DESIGN.md §19, a chaos spec's [inject]); [0]
    (the default) disables it completely. With [k > 0], every [k]-th
    [Put] this instance applies is acknowledged [Stored] but silently not
    executed — a lost update.
    Every replica applies the same committed sequence, so all replicas
    lose the {e same} writes: the Appendix A invariants stay clean and
    only a client-visible conformance check (a read observing the stale
    value) can catch it. Counted per app instance, in log order, so runs
    remain deterministic per seed. *)

(** {1 Checkpointing} *)

val snapshot : t -> Bytes.t
(** The table and every client session. *)

val restore : Bytes.t -> t

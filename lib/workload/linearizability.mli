(** Linearizability checking: one search, any sequential model.

    Mu claims linearizability (§1, §2.2); this module lets tests verify
    the claim empirically: record each client operation's invocation and
    response times plus its observed result, and {!Make.check} searches
    for a legal linearization — a total order of the operations that (a)
    respects real-time precedence (an operation that responded before
    another was invoked must come first) and (b) is a valid sequential
    execution of the model producing exactly the observed results.

    The search is the standard Wing & Gong backtracking. Histories are
    checked per key independently (operations on distinct keys commute),
    with the key's model state as the search state. Intended for
    test-sized histories (hundreds of operations per key at most).

    Two models sit on the one search: the abstract register below (the
    top-level {!check}/{!witness}), and the KV reply model
    {!Chaos.check} judges every chaos run with. *)

(** {1 The search} *)

(** A sequential specification on one key. *)
module type MODEL = sig
  type state
  type op

  val init : state
  (** Every key's state before its first op. *)

  val key : op -> string

  val invoked : op -> int
  (** Virtual invocation time. *)

  val responded : op -> int
  (** Virtual response time ([max_int] = never). *)

  val fits : state -> op -> bool
  (** Whether [op]'s observed result is what the model gives in [state]. *)

  val next : state -> op -> state
  (** The state after [op]; only asked when {!fits} holds. *)

  val removable : op list -> op -> bool
  (** [removable retained o]: the minimizer may try dropping [o] from
      [retained]. Must hold only when dropping [o] from any linearizable
      history that contains [retained] keeps it linearizable, so every
      failing sub-history the minimizer reaches is a genuine
      counterexample. *)

  val order : op -> op -> int
  (** A total order consistent with invocation time: the minimizer's
      scan order, so the witness does not depend on how the caller
      accumulated the history. *)
end

(** {2 Minimal counterexample}

    When a history is not linearizable, a bare [false] forces whoever is
    debugging to stare at the whole run. [witness] instead minimizes the
    failure: it picks the (alphabetically first) failing key and greedily
    removes operations whose absence keeps the sub-history failing
    (last-to-first in {!MODEL.order}, repeated to a fixpoint), guarded by
    {!MODEL.removable}. The witness is therefore a genuine sub-history of
    real events that is non-linearizable on its own. Deterministic: the
    same history always minimizes to the same witness. *)

module Make (M : MODEL) : sig
  type witness = {
    wkey : string;  (** The failing key. *)
    wops : M.op list;  (** Minimal failing sub-history, in {!MODEL.order}. *)
    wpending : M.op list;
        (** Ops in [wops] with an open response interval — invoked but
            never answered (crashed leader, horizon cut). Their placement
            is unconstrained on the right, so they are the usual
            suspects. *)
  }

  val check : M.op list -> bool
  (** Whether the history is linearizable. *)

  val witness : M.op list -> witness option
  (** [None] iff the history is linearizable ({!check} agreement). *)
end

(** {1 The abstract register}

    Each key is a register: a write sets it, an erase clears it, a read
    must observe it. A delete's own reply is not modelled — an erase
    always succeeds. *)

type op_kind =
  | Read of string option  (** Observed value ([None] = not found). *)
  | Write of string
  | Erase  (** Delete: sets the register back to [None]. *)

type op = {
  proc : int;  (** Client id (operations of one client never overlap). *)
  invoked : int;  (** Virtual invocation time. *)
  responded : int;  (** Virtual response time ([max_int] = never). *)
  key : string;
  kind : op_kind;
}

type witness = { wkey : string; wops : op list; wpending : op list }
(** {!Make.witness} for the register. A write (or erase) is only dropped
    when no retained read could have observed its effect — removing it
    could otherwise manufacture a spurious violation (a read of a value
    whose write was deleted). *)

val check : op list -> bool
(** Whether the history is linearizable. *)

val witness : op list -> witness option
(** [None] iff the history is linearizable ({!check} agreement). *)

val pp_witness : witness Fmt.t
(** Multi-line rendering: one op per line with real-time intervals and
    observed results, pending ops flagged. *)

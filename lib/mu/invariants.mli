(** Cluster-wide safety invariants, executable forms of Appendix A.

    These are checking utilities for tests, examples and debugging — they
    read replica state directly (no communication) and report violations.
    They correspond to:

    - {b Agreement} (Theorem A.7): no two replicas hold different values
      in the same decided slot.
    - {b No holes} (Lemma A.11): every decided-but-unapplied slot is
      populated. Slots below a replica's log head may legitimately be
      empty (recycled, §5.3).
    - {b Decided implies majority} (Definition 2 / Invariant A.1): every
      entry below some replica's FUO is present at a majority of the
      replicas that still retain that index (i.e., whose log head is at or
      below it).
    - {b Single writer} (§5.2): each replica grants log write access to at
      most one remote replica.
    - {b Applied within decided}: a replica never applies past its FUO. *)

type violation = { replica : int; index : int option; message : string }

val pp_violation : violation Fmt.t

val check_all : Replica.t array -> violation list
(** Run every invariant; empty list = all hold. *)

val agreement : Replica.t array -> violation list
val no_holes : Replica.t array -> violation list
val single_writer : Replica.t array -> violation list

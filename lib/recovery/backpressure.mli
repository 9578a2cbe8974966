(** Bounded admission for the leader's request queue.

    [admit] answers whether a new request may enqueue given the current
    queue depth; a refusal is counted and the caller answers the client
    with a retryable error. [limit = 0] disables the bound entirely. *)

type t

val create : limit:int -> t
val enabled : t -> bool

val admit : t -> depth:int -> bool
(** [admit t ~depth] is false — and counts a shed — iff the bound is
    enabled and [depth] is already at or past it. *)

val sheds : t -> int

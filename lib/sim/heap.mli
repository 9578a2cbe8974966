(** Minimal binary min-heap specialised for the event queue.

    Elements are ordered by an integer key with an integer tiebreaker
    (insertion sequence), giving deterministic FIFO order among events
    scheduled for the same instant.

    The implementation keeps keys, sequence numbers and payloads in
    parallel arrays: a push/pop cycle allocates nothing beyond amortised
    array growth, and popped slots are cleared immediately so a payload
    (e.g. an event closure and everything it captures) never stays
    reachable from the heap after it has been removed. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> key:int -> seq:int -> 'a -> unit

val top_key : 'a t -> int
(** Key of the minimum element; [max_int] when empty. Allocation-free. *)

val top : 'a t -> 'a
(** The minimum element without removing it. Raises [Invalid_argument]
    when empty. *)

val drop : 'a t -> unit
(** Remove the minimum element (clearing its slot). Raises
    [Invalid_argument] when empty. [top] followed by [drop] is the
    allocation-free equivalent of {!pop}. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum element. *)

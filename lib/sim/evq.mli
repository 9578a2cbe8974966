(** The engine's event queue: a binary min-heap plus a same-instant ring.

    Elements leave in ascending [(key, seq)] order — key is virtual-time
    nanoseconds, seq the engine's global event counter — the total order
    that keeps same-seed simulation traces byte-identical.

    The queue has a clock: the key of the last pop that moved it
    forward. A push at exactly the clock (a sleep's wake event, a
    Suspend/Ivar/Chan wake, a spawn) goes to a FIFO ring; every other
    push goes to the heap. Heap entries at or behind the clock pop
    first, then the ring, and only then does the clock advance to the
    heap minimum. A push/pop cycle allocates nothing, and a popped
    payload is unreachable from the queue the moment it leaves. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> key:int -> seq:int -> 'a -> unit
(** Keys may be arbitrary non-negative ints and need not be monotonic;
    [seq] must be globally monotonic across pushes (the engine's event
    sequence counter), which is what lets the ring hold its events
    without seqs. *)

val next_key : 'a t -> int
(** Key of the minimum element; [max_int] when empty. Allocation-free;
    never moves the clock. *)

val due_by : 'a t -> int -> bool
(** [due_by t at]: whether some element has key [<= at].
    Allocation-free; never moves the clock. *)

val pop_exn : 'a t -> 'a
(** Remove and return the minimum element. Raises [Invalid_argument]
    when empty. Allocation-free. A pop behind the clock leaves the
    clock where it is. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum element. *)

(** Hierarchical timing-wheel event queue.

    Drop-in replacement for {!Heap} on the engine hot path: elements
    are ordered by an integer key (virtual-time nanoseconds) with an
    integer sequence tiebreaker, and pops leave in exactly the same
    ascending [(key, seq)] total order the binary heap produced — the
    property that keeps same-seed simulation traces byte-identical.

    Four levels of 256 slots cover a 2^32-tick horizon with O(1)
    push and amortised-O(1) pop; events beyond the horizon wait in an
    overflow min-heap, and events pushed behind the wheel clock (which
    [next_key] may advance past a [run ~until] limit) go to a small
    "past" heap that always drains first. Buckets are parallel
    int/payload arrays and a push/pop cycle allocates nothing; vacated
    payload slots are cleared immediately so retired event closures are
    never retained by the queue. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> key:int -> seq:int -> 'a -> unit
(** Keys may be arbitrary non-negative ints and need not be monotonic;
    [seq] must be globally monotonic across pushes (the engine's event
    sequence counter), which is what lets buckets stay sorted without
    comparisons. *)

val next_key : 'a t -> int
(** Key of the minimum element; [max_int] when empty. Allocation-free,
    for hot loops. May advance the internal wheel clock (cascading upper
    levels down), which never changes the pop order. *)

val next_seq : 'a t -> int
(** Seq of the minimum element, the tiebreaker beside {!next_key};
    [max_int] when empty. Allocation-free; may move the wheel clock like
    {!next_key}. *)

val due_by : 'a t -> int -> bool
(** [due_by t at]: whether some element has key [<= at]. Unlike
    {!next_key} it never moves the wheel clock or cascades, so asking
    cannot send later pushes into the past heap. Allocation-free. *)

val pop_exn : 'a t -> 'a
(** Remove and return the minimum element. Raises [Invalid_argument]
    when empty. Allocation-free. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum element. *)

(** {1 Occupancy}

    Queue-shape introspection: how deep each wheel level sits and how
    much spills into the overflow/past heaps. Event counts per level are
    maintained incrementally; {!stats} copies them and derives
    occupied-slot counts from the occupancy bitmap. *)

type stats = {
  level_events : int array;  (** Events per level, index = level. *)
  level_slots : int array;  (** Occupied slots per level (of 256). *)
  past : int;
  overflow : int;
}

val stats : 'a t -> stats
(** Snapshot of the wheel's shape. Allocates; intended for sampling
    cadence, not the per-event hot path. *)

(** Zero-on-demand paged memory.

    A region is a fixed-size byte range split into pages of
    {!page_size} bytes, grouped 256 to a directory that covers 64 KiB.
    Every directory starts out as a shared read-only zero directory
    whose pages all read as zeros; the first store into a page gives
    its directory a copy of its own and the page bytes of its own. A
    large region that is mostly never written (a 16 384-slot consensus
    log, say) costs a pointer per 64 KiB until it is used, and a log
    entry of a few dozen bytes costs one or two pages.

    Page bytes live in a slab owned by the region: chunks of 16 pages
    that hold no pointers, so the garbage collector neither scans nor
    copies them, cut to the pages a small region has (one store into a
    64-byte region costs one page). Pages that a zero fill returns are
    reused, zeroed, by later stores, so a region that is written and
    cleared over and over (a recycled log) stops allocating once its
    slab covers the most pages it ever holds at once. Reads and writes
    may straddle page boundaries; loads allocate nothing except {!sub}'s
    result, and a store allocates only to give its directory a copy of
    its own or to grow the slab.

    Every access is bounds-checked against the region and raises
    [Invalid_argument] when it falls outside. *)

type t

val page_size : int
(** 256 bytes: a few log entries, so a slot-sized store materializes
    little more than it writes. *)

val create : int -> t
(** A zero-filled region of the given size (> 0). *)

val size : t -> int

val pages_materialized : t -> int
(** Pages that have their own bytes (written at least once). *)

val get_char : t -> int -> char
val set_char : t -> int -> char -> unit
val get_i32 : t -> int -> int32
(** Little-endian. *)

val set_i32 : t -> int -> int32 -> unit
val get_i64 : t -> int -> int64
(** Little-endian. *)

val set_i64 : t -> int -> int64 -> unit

val get_int : t -> int -> int
(** The little-endian 64-bit word at the offset, unboxed. Only for values
    that fit in 62 bits (counters): a wider word loses its top bit. *)

val set_int : t -> int -> int -> unit
(** [set_i64] of [Int64.of_int v], without boxing [v]. *)

val blit_from_bytes : Bytes.t -> int -> t -> int -> int -> unit
(** [blit_from_bytes src src_off t off len] stores [len] bytes of [src]
    starting at [src_off] into the region at [off]. *)

val sub : t -> off:int -> len:int -> Bytes.t
(** A fresh copy of [len] bytes at [off]. *)

val fill : t -> off:int -> len:int -> char -> unit
(** Store [len] copies of a byte. Filling a never-written page with
    zeros leaves it unmaterialized, and zeros over a whole page (or a
    whole 64 KiB directory) return it to the shared zeros: the page to
    the slab for reuse, the directory to the shared zero directory. *)

(** Zero-on-demand paged memory.

    A region is a fixed-size byte range split into pages of
    {!page_size} bytes, grouped 256 to a directory that covers 64 KiB
    (the last page, or a region smaller than one page, is cut to the
    region's end). Every directory starts out as a shared read-only
    zero directory of shared zero pages; the first store into a page
    gives its directory, then the page, a copy of their own. A large
    region that is mostly never written (a 16 384-slot consensus log,
    say) costs a pointer per 64 KiB until it is used, and a log entry
    of a few dozen bytes costs one or two small pages. Reads and writes
    may straddle page boundaries; the accessors allocate nothing except
    {!sub}'s result.

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

val blit_from_bytes : Bytes.t -> int -> t -> int -> int -> unit
(** [blit_from_bytes src src_off t off len] stores [len] bytes of [src]
    starting at [src_off] into the region at [off]. *)

val sub : t -> off:int -> len:int -> Bytes.t
(** A fresh copy of [len] bytes at [off]. *)

val fill : t -> off:int -> len:int -> char -> unit
(** Store [len] copies of a byte. Filling a never-written page with
    zeros leaves it unmaterialized, and zeros over a whole page (or a
    whole 64 KiB directory) return it to the shared zero page (or
    directory). *)

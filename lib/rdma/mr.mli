(** Registered memory regions.

    An MR owns {!Sim.Mem} memory pinned on its host (zero-on-demand
    pages: untouched parts cost nothing) and carries remote access
    flags. Overlapping registrations (the paper's first permission
    mechanism, §5.2) are modelled by {!alias}: a second MR over the same
    buffer with independent flags. An operation is allowed only if both the
    QP it arrives on and the target MR permit it. *)

type t

val register :
  ?persistent:bool -> ?mem:Sim.Mem.t -> Sim.Host.t -> size:int -> access:Verbs.access -> t
(** Register a fresh zero-filled region. Instantaneous (initial
    registration cost is off the critical path); re-registration cost is
    modelled by {!Perm.rereg_mr}. [persistent] marks the region as remote
    persistent memory: incoming Writes pay the flush cost before acking
    (the paper's anticipated persistence extension, §1). [mem]
    registers the MR over caller-provided memory instead of a fresh
    region — used to map a {!Sim.Nvm} region so every write (local or
    remote) lands in durable memory by construction; its size must
    equal [size]. Watches belong to the registration: a fresh one over
    the same memory starts with none. *)

val alias : t -> access:Verbs.access -> t
(** Register the same memory again with different flags (overlapping MR).
    The alias shares the original's watches and read hooks. *)

val host : t -> Sim.Host.t
val size : t -> int
val access : t -> Verbs.access
val set_access : t -> Verbs.access -> unit
(** Instantaneous flag update — timing belongs to {!Perm}. *)

val invalidate : t -> unit
(** Deregister: subsequent remote operations fail. *)

val is_valid : t -> bool

val in_bounds : t -> off:int -> len:int -> bool

val watch : t -> off:int -> len:int -> (off:int -> len:int -> unit) -> unit
(** [watch t ~off ~len f] calls [f ~off ~len] with the stored range on
    every store that overlaps [off, off+len): local stores through the
    setters below and remote Writes (at their arrival instant, through
    {!Qp}), via this MR or any alias of it. This is how a process polling
    its memory learns of a change without simulating every poll: Mu's
    pollers ring a {!Sim.Host.doorbell} from it, and the two-sided
    baselines (APUS, Hermes) and HERD add their own poll-phase delay. *)

val on_read : t -> off:int -> (unit -> unit) -> unit
(** [on_read t ~off f] calls [f ()] before every load that overlaps the
    8-byte word at [off]: local loads through the getters below and
    remote Reads (at their arrival instant, through {!Qp}), via this MR
    or any alias of it. [f] may store into the word, and the load sees
    that store. This is how a value that changes on a fixed schedule is
    computed when it is read instead of stored at every change: Mu's
    heartbeat counter ([Mu.Replica.settle_heartbeat]). A load through
    an MR with no read hook pays one match. *)

val is_persistent : t -> bool

(** {1 Memory access}

    Local loads and stores by the owning process; the transport uses
    the same calls for remote Reads and Writes. Loads run the read hooks
    they overlap first ({!on_read}). None allocates except
    {!get_bytes}'s result. Out-of-range offsets raise
    [Invalid_argument]. *)

val get_i64 : t -> off:int -> int64
val get_int : t -> off:int -> int
(** {!get_i64} as an unboxed [int], for counters that fit in 62 bits. *)

val get_i32 : t -> off:int -> int32
val get_char : t -> off:int -> char
val get_bytes : t -> off:int -> len:int -> Bytes.t

val set_i64 : t -> off:int -> int64 -> unit
val set_int : t -> off:int -> int -> unit
(** {!set_i64} of [Int64.of_int v], unboxed. *)

val set_bytes : t -> off:int -> Bytes.t -> unit

val write_from : t -> off:int -> src:Bytes.t -> src_off:int -> len:int -> unit
(** Store [len] bytes of [src] from [src_off]. *)

val zero : t -> off:int -> len:int -> unit
(** Store zeros; pages never written stay unmaterialized. *)

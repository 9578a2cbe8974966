(** The consensus log (Listing 1, §4.1) and its byte layout inside an RDMA
    memory region.

    Layout (little-endian):
    {v
      offset 0   minProposal : int64
      offset 8   FUO         : int64      (first undecided offset)
      offset 16  slot[0], slot[1], ...
    v}
    Each slot holds one (proposal, value) tuple plus a {e canary} byte
    (§4.2 "Replayer"). Entries are variable-length so that small payloads
    stay below the RDMA inline threshold:
    {v
      +0             proposal : int64     (0 = empty)
      +8             length   : int32
      +12 .. +12+len value bytes
      +12+len        canary   : byte      (1 once the entry is complete)
    v}
    The canary is the last byte of the written image; under the NIC's
    left-to-right DMA semantics (assumed by the paper and by this model,
    where writes apply atomically) a reader that sees the canary set also
    sees the full entry.

    Logical slot indices grow without bound; the physical log is circular
    ({!slot_offset} maps index → offset modulo capacity, §5.3). Recycled
    slots must be zeroed before reuse so stale canaries cannot be mistaken
    for fresh entries. *)

type t

(** How entry completeness is detected (§4.2 "Replayer"):
    - [Flag]: the final byte is set to 1; correctness relies on the NIC's
      left-to-right DMA semantics (the paper's production choice).
    - [Checksum]: the final byte is a one-byte checksum of the entry, "the
      follower could read the canary and wait for the checksum to match
      the data" — no write-ordering assumption, at the cost of summing the
      payload on every read. *)
type canary_mode = Flag | Checksum

type slot = { proposal : int64; value : bytes }

val required_size : slots:int -> value_cap:int -> int
(** Bytes of MR needed for a log with the given geometry. *)

val attach : ?canary:canary_mode -> Rdma.Mr.t -> slots:int -> value_cap:int -> t
(** Interpret [mr] as a log ([canary] defaults to [Flag]). Raises if the
    MR is too small. *)

val mr : t -> Rdma.Mr.t
val slots : t -> int

(** {1 Offsets, for composing one-sided operations} *)

val min_proposal_offset : int
val fuo_offset : int
val slot_size : t -> int
val slot_offset : t -> int -> int
(** Physical byte offset of a logical index (wraps modulo capacity). *)

val entry_bytes : value_len:int -> int
(** Bytes actually written for an entry with a [value_len]-byte payload
    (header + value + canary) — the RDMA Write length on the fast path. *)

(** {1 Local access (the owner's view)} *)

val min_proposal : t -> int64
val set_min_proposal : t -> int64 -> unit
val fuo : t -> int
val set_fuo : t -> int -> unit

val read_slot : t -> int -> slot option
(** [None] while empty or incomplete (canary unset). *)

val slot_filled : t -> int -> bool
(** [slot_filled t i = (read_slot t i <> None)], read in place: no copy
    of the value is made. *)

val read_slot_raw : t -> int -> Bytes.t
(** The raw slot image (for copying logs during leader catch-up). *)

val encode_slot : t -> proposal:int64 -> value:bytes -> Bytes.t
(** Wire image of a complete entry ({!entry_bytes} long, canary set) — what
    the leader RDMA-writes into follower logs. Raises if [value] exceeds
    the value capacity. *)

val decode_slot : t -> Bytes.t -> slot option
(** Parse a slot image (as produced by {!encode_slot} or read remotely)
    under this log's canary mode. *)

val write_slot_local : t -> int -> proposal:int64 -> value:bytes -> unit
val write_slot_raw_local : t -> int -> Bytes.t -> unit
val zero_slot_local : t -> int -> unit

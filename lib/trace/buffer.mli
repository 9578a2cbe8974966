(** Bounded ring buffer of probe events.

    When full, the oldest event is overwritten and counted in {!dropped},
    so a long run keeps the newest window of activity — the part that
    usually matters when diagnosing a counterexample. Accumulators that
    must see {e every} event (e.g. {!Breakdown}) are fed from the sink
    directly, before the ring. *)

type t

val create : capacity:int -> t
val capacity : t -> int

val add : t -> Sim.Probe.event -> unit

val length : t -> int
(** Events currently held. *)

val dropped : t -> int
(** Events overwritten since creation. *)

val recorded : t -> int
(** Total events ever added ([length + dropped]). *)

val to_list : t -> Sim.Probe.event list
(** Oldest to newest. *)

val clear : t -> unit

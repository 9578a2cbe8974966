(** Pluggable structured-event hook for the simulation.

    A probe is a mutable slot for an event sink. Every engine owns one;
    when no sink is installed, emitting is a single option check and
    allocates nothing, so instrumentation can stay on permanently in hot
    paths. The [trace] library installs a sink that records events into a
    bounded ring buffer and folds spans into percentile tables — but the
    sim layer knows nothing about it, only about this event shape.

    Events carry the {e virtual} timestamp of the engine, so two runs with
    equal seeds produce identical event streams. *)

type kind =
  | Instant  (** Point event. *)
  | Span_begin  (** Start of a synchronous span; nests per (pid, tid). *)
  | Span_end
  | Async_begin  (** Start of an async span; paired by (cat, name, id). *)
  | Async_end
  | Counter  (** Sampled value; [args] holds [("value", v)]. *)
  | Meta_process  (** Names process [pid]; [name] is the display name. *)
  | Meta_thread  (** Names thread [tid] of [pid]. *)

type event = {
  ts : int;  (** Virtual nanoseconds. *)
  kind : kind;
  name : string;
  cat : string;  (** Category, e.g. ["sim"], ["rdma"], ["mu"]. *)
  pid : int;  (** Host id, or -1 for engine-global events. *)
  tid : int;  (** Fiber id, or 0 for the scheduler. *)
  id : int;  (** Pairing id for async spans; 0 otherwise. *)
  args : (string * string) list;
}

type t

val create : unit -> t
val set_sink : t -> (event -> unit) -> unit

val enabled : t -> bool
(** [true] iff a sink is installed. Check this before building argument
    lists on hot paths. *)

val sink : t -> (event -> unit) option

val emit : t -> event -> unit
(** Deliver to the sink, if any. *)

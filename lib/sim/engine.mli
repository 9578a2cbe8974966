(** Deterministic discrete-event simulation engine with cooperative fibers.

    The engine owns a virtual clock (integer nanoseconds) and a priority
    queue of pending events. Protocol code runs inside {e fibers}: OCaml 5
    effect-based coroutines that suspend on {!sleep}, channel receives,
    ivar reads, and RDMA completions. A fiber segment runs to completion
    before any other event fires, so each segment is atomic with respect to
    simulated concurrency — exactly the semantics of a pinned thread that
    only observes the outside world through explicit waits.

    Determinism: two runs with equal seeds execute identical event orders.
    Events scheduled for the same instant fire in scheduling order. *)

type t

exception Fiber_crash of string * exn
(** Raised out of {!run} when a fiber raises; carries the fiber name. *)

val create : ?seed:int64 -> unit -> t
(** Fresh engine at time 0. [seed] (default 1) seeds the root PRNG. *)

val now : t -> int
(** Current virtual time in nanoseconds. *)

val rng : t -> Rng.t
(** The engine's root PRNG. Components should derive their own streams via
    {!Rng.split}. *)

val fabric : t -> Fabric.t
(** The engine's fault-injection table, consulted by the RDMA layer on
    every post. Empty by default; see {!Fabric}. *)

val nvm : t -> Nvm.t
(** The engine's simulated non-volatile memory: per-owner byte regions
    that survive {!Host.kill_host}, for crash-recovery experiments. *)

val schedule : t -> at:int -> (unit -> unit) -> unit
(** Schedule a thunk at an absolute time (>= [now]). *)

val schedule_after : t -> int -> (unit -> unit) -> unit
(** Schedule a thunk at [now + delay]. *)

val spawn : t -> ?name:string -> ?pid:int -> (unit -> unit) -> unit
(** Start a fiber at the current time. The body may use the suspension
    operations below. [pid] tags the fiber's probe events with a host id
    (default -1: no host); {!Host.spawn} passes its own id. *)

val run : ?until:int -> t -> unit
(** Execute events until the queue is empty, [until] is reached, or
    {!halt}. On normal return with [~until], {!now} is [until] even if
    the queue drained early — the engine has observed all of virtual
    time up to the limit, so back-to-back [run ~until] calls see a
    consistent monotone clock. After {!halt} (or an exception), {!now}
    stays at the last executed event. Re-entrant calls are not
    allowed. *)

val halt : t -> unit
(** Stop {!run} after the current event. *)

val pending_events : t -> int
(** Events queued. *)

(** {1 Profiling}

    Whole-run virtual-time attribution, consumed by the [profile]
    library. The engine attributes the interval between consecutive
    events to the identity that {e scheduled} the interval-ending event
    — (host pid, fiber id, open provenance-span stack) captured inside
    {!schedule} — so per-identity exclusive times sum exactly to the
    run's span. With no profiler attached every hook site is a single
    option check and allocates nothing; with one attached, each
    scheduled event carries one extra closure. Attaching a profiler
    never touches any PRNG and emits no probe events, so a profiled
    run's event order, trace bytes and PRNG streams are byte-identical
    to the unprofiled run. *)

type profiler = {
  prof_event : now:int -> unit;
      (** The run loop advanced the clock to [now]; a thunk fires next.
          Accumulate [now - last] as the pending interval. *)
  prof_attr : pid:int -> tid:int -> spans:int list -> unit;
      (** Claim the pending interval for this scheduling identity.
          [spans] is innermost-first. Called by the scheduled thunk's
          wrapper, after {!prof_event} for the same instant. *)
  prof_fiber : tid:int -> pid:int -> name:string -> unit;
      (** A fiber was spawned (names the [tid]). *)
  prof_span : id:int -> name:string -> unit;
      (** A provenance span id was allocated (names the [id]). *)
  prof_host : pid:int -> name:string -> unit;
      (** A host announced its name (via {!trace_meta_process}). *)
}

val set_profiler : t -> profiler -> unit
(** Attach a profiler. Attach before scheduling any work: events already
    queued are not wrapped, and their intervals fall into the
    profiler's idle bucket rather than a fiber's. *)

val clear_profiler : t -> unit

val profiled : t -> bool
(** [true] iff a profiler is attached. *)

type selfcost
(** Stride-sampled wall-clock accounting of the engine's own event
    queue (push + pop). Wall-clock readings never feed the virtual
    clock, so sampling cannot perturb the simulation. The numbers are
    volatile: never byte-compare them. *)

val selfcost_create : clock:(unit -> float) -> unit -> selfcost
(** Measure one queue op in 64 with [clock] (wall seconds). *)

val set_selfcost : t -> selfcost -> unit

val selfcost_queue : selfcost -> int * int * float
(** [(ops, sampled, wall_s)]: total queue ops, ops measured, and wall
    seconds summed over the measured ops. Extrapolate with
    [wall_s *. float ops /. float sampled]. *)

(** {1 Telemetry}

    The engine carries a metrics registry as a handle and records
    nothing into it itself: components created after {!set_metrics}
    resolve their own instruments via {!metrics}, and with no registry
    attached each of their instrumented sites costs a single option
    check. A registry does not watch the event stream, so an engine
    with one attached executes exactly the events of a bare engine. *)

val set_metrics : t -> Telemetry.Registry.t -> unit
(** Store a metrics registry for {!metrics}. May be called at any time;
    only components created afterwards see it. *)

val metrics : t -> Telemetry.Registry.t option

(** {1 Tracing}

    Every engine owns a {!Probe.t}. With no sink installed (the default),
    every [trace_*] call below is a single option check; the [trace]
    library installs a sink to record structured traces. Events are
    stamped with the virtual clock, so equal seeds yield identical event
    streams. Emitting never perturbs the simulation. *)

val probe : t -> Probe.t
(** The engine's probe; install a sink with {!Probe.set_sink}. *)

val traced : t -> bool
(** [true] iff a sink is installed. Guard argument-list construction on
    hot paths with this. *)

val trace_instant :
  t -> ?cat:string -> ?pid:int -> ?tid:int -> ?args:(string * string) list -> string -> unit

val trace_begin :
  t -> ?cat:string -> ?pid:int -> ?tid:int -> ?args:(string * string) list -> string -> unit

val trace_end :
  t -> ?cat:string -> ?pid:int -> ?tid:int -> ?args:(string * string) list -> string -> unit

val trace_async_begin :
  t -> ?cat:string -> ?pid:int -> ?args:(string * string) list -> id:int -> string -> unit
(** Async spans pair by (cat, name, id) and may end on a different fiber
    than they began (e.g. an RDMA post and its completion). *)

val trace_async_end :
  t -> ?cat:string -> ?pid:int -> ?args:(string * string) list -> id:int -> string -> unit

val trace_counter : t -> ?cat:string -> ?pid:int -> string -> value:int -> unit

val trace_meta_process : t -> pid:int -> string -> unit
(** Name a host for trace viewers; emitted by {!Host.create}. *)

val trace_span :
  t -> ?cat:string -> ?pid:int -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [trace_span t ~cat name f] brackets [f] in a begin/end pair; the end
    event is emitted even when [f] raises. When no sink is installed this
    is exactly [f ()]. *)

(** {1 Provenance}

    Per-request causal spans, layered on the probe: spans and their causal
    edges are emitted as [Instant] events in cat ["prov"], reconstructed
    offline by the [provenance] library. Off by default; until
    {!set_provenance} opts in {e and} a sink is installed, every call below
    is a single bool check, no span ids are allocated, and traces are
    byte-identical to a build without instrumentation. Nothing here touches
    any PRNG. *)

val set_provenance : t -> bool -> unit
(** Enable/disable provenance span emission. *)

val provenance_on : t -> bool
(** [true] iff provenance is enabled and a probe sink {e or a profiler}
    is installed (the profiler consumes span stacks as part of its
    attribution identity; with no sink the span events themselves go
    nowhere). Guard argument construction on hot paths with this. *)

val span_open : t -> ?pid:int -> ?parent:int -> ?args:(string * string) list -> string -> int
(** Open a {e detached} span and return its id (0 when provenance is off).
    [parent] defaults to the executing fiber's innermost open
    {!with_span} span. Detached spans may be closed from a different fiber
    (e.g. an RDMA post closed by its completion) and may overlap their
    siblings; the caller owns the id and must {!span_close} it. *)

val span_close : t -> ?pid:int -> ?args:(string * string) list -> int -> unit
(** Close a span by id; extra [args] (e.g. a completion status) attach to
    the end event. No-op for id 0. *)

val span_point : t -> ?pid:int -> ?args:(string * string) list -> span:int -> string -> unit
(** Attach an instantaneous named point to a span (e.g. a client retry). *)

val span_edge : t -> ?pid:int -> kind:string -> src:int -> dst:int -> unit -> unit
(** Record a causal edge between two spans (e.g. ["batched_into"],
    ["blocked_by"]). No-op when either end is 0. *)

val with_span : t -> ?pid:int -> ?args:(string * string) list -> string -> (int -> 'a) -> 'a
(** [with_span t name f] runs [f id] inside a stack-scoped span: the span
    is the fiber's innermost open span for the dynamic extent of [f]
    (parenting both nested [with_span]s and detached {!span_open}s), and
    is closed when [f] returns or raises. [f] receives 0 when provenance
    is off. *)

val span_scope : t -> ?pid:int -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** {!with_span} when the body does not need the span id. *)

val span_stacks_live : t -> int
(** Number of fibers with an open {!with_span} stack — bounded by live
    fibers, not by fibers ever created (exposed for leak regression
    tests). *)

(** {1 Fiber operations} — valid only inside a fiber body. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] captures the current continuation, passes a one-shot
    [resume] function to [register], and suspends. Calling [resume v]
    schedules the fiber to continue with [v] at the engine's current time.
    The building block for all other waiting primitives. *)

val sleep : t -> int -> unit
(** Suspend for the given number of virtual nanoseconds. When no event
    is due before the wake instant, the run reaches it and nothing
    observes the event stream (no probe sink, profiler or self-cost
    sampler), the fiber continues in place with the clock moved forward
    instead: the same execution, without the two events a suspension
    costs. *)

val fast_forwards : t -> int
(** Sleeps that continued in place (see {!sleep}) over the engine's
    life. *)

val yield : t -> unit
(** Suspend and resume at the same instant, after already-queued events. *)

(** Write-once cell; readers block until filled. *)
module Ivar : sig
  type 'a ivar

  val create : t -> 'a ivar
  val fill : 'a ivar -> 'a -> unit
  (** Fill the cell, waking all readers. Raises [Invalid_argument] if
      already filled. *)

  val try_fill : 'a ivar -> 'a -> bool
  (** Like {!fill} but returns [false] instead of raising when full. *)

  val read : 'a ivar -> 'a
  (** Block until filled (immediate if already filled). *)

  val peek : 'a ivar -> 'a option
  val is_filled : 'a ivar -> bool
end

(** Unbounded FIFO channel between fibers. *)
module Chan : sig
  type 'a chan

  val create : t -> 'a chan
  val send : 'a chan -> 'a -> unit
  val recv : 'a chan -> 'a
  (** Block until an element is available. *)

  val recv_timeout : 'a chan -> int -> 'a option
  (** [recv_timeout c ns] waits at most [ns] virtual nanoseconds; [None] on
      timeout. *)

  val poll : 'a chan -> 'a option
  (** Non-blocking receive. *)

  val length : 'a chan -> int
end

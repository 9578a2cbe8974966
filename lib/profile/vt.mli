(** Whole-run virtual-time profiler.

    Attaches to an engine's profiler hooks and attributes every
    virtual-nanosecond of the run to the identity — host, fiber, open
    provenance-span stack — that scheduled the event ending that
    interval. Attribution is exact, not sampled: the bucket values are
    exclusive nanoseconds and (with the ["(idle)"] bucket for virtual
    time no identity claimed) sum to the run's span to the nanosecond.

    Deterministic: attribution consumes no PRNG and emits no events, so
    equal seeds give byte-identical {!to_folded_string} and
    {!to_speedscope_string} output, and attaching a profiler does not
    change the simulation itself (trace bytes and post-run PRNG state
    are unchanged).

    Provenance spans appear as stack frames only when provenance ids
    are maintained — [Engine.set_provenance e true]; a probe sink is
    {e not} required (the engine maintains span stacks whenever a
    profiler is attached). *)

type t

val attach : Sim.Engine.t -> t
(** Register the profiler on the engine. Attach before scheduling any
    work: events scheduled before attach are unwrapped and their
    intervals fall into the ["(idle)"] bucket. At most one profiler per
    engine (a second [attach] replaces the first). *)

val finish : t -> unit
(** Close the profile: virtual time after the last event goes to
    ["(idle)"], and the engine's profiler is detached. Idempotent.
    Must be called before exporting. *)

val span_ns : t -> int
(** Virtual nanoseconds covered: [Engine.now] at {!finish} minus
    [Engine.now] at {!attach}. Equals the sum of all folded weights. *)

val idle_ns : t -> int
(** The ["(idle)"] bucket (valid after {!finish}). *)

(** {1 Exports}

    Folded entries are [(frames, exclusive_ns)] with frames root-first:
    host name (or ["(engine)"] for engine-internal events), fiber name
    (or ["(scheduler)"]), then open provenance spans outermost-first.
    Entries are merged by rendered stack and sorted lexicographically,
    so the export is byte-deterministic. *)

val folded_of : t -> (string list * int) list
(** Folded entries for one engine (call after {!finish}). *)

val folded : t list -> (string list * int) list
(** Merge across engines (e.g. one per replica host process). *)

val total_ns : (string list * int) list -> int

val to_folded_string : (string list * int) list -> string
(** Flamegraph collapsed-stack text: ["frame;frame;frame <ns>\n"] per
    entry, ready for [flamegraph.pl] / [inferno-flamegraph]. [';'] in
    frame names is replaced by [',']. *)

val to_speedscope_string : ?name:string -> (string list * int) list -> string
(** Speedscope file-format JSON (one ["sampled"] profile, unit
    nanoseconds, weights = exclusive ns). *)

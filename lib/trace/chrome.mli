(** Chrome trace-event JSON exporter (Perfetto / chrome://tracing).

    Hosts render as processes, fibers as threads. Mapping:
    - {!Sim.Probe.Span_begin}/[Span_end] -> ["B"]/["E"] (nested per thread)
    - [Async_begin]/[Async_end] -> ["b"]/["e"] with ["id"] (RDMA verbs)
    - [Instant] -> ["i"] thread-scoped
    - [Counter] -> ["C"] (numeric args plotted as counter tracks)
    - process/thread names -> ["M"] metadata

    Timestamps are virtual nanoseconds rendered as fixed-point
    microseconds with integer arithmetic only; given identical event
    streams the output is byte-identical. Events with pid -1 (scheduler,
    experiment harness) are grouped under synthetic process 65535. *)

val engine_pid : int
(** Synthetic pid (65535) that hostless events are exported under. *)

val fixed_ts : int -> string
(** Virtual ns as fixed-point µs ("%d.%03d"), the only timestamp format
    this exporter emits. *)

(** A trace phase with no {!Sim.Probe.kind}: the provenance exporter's
    nestable-async spans (["b"]/["e"]) and flow arrows (["s"]/["f"]).
    [extra] phases are printed after the probe events by the same event
    printer, on thread 0, with [id] as the async or flow id and [args]
    (if any) as the event's ["args"] object. *)
type phase = {
  ph : string;
  name : string;
  cat : string;
  ts : int;  (** virtual ns *)
  pid : int;
  id : int;
  args : (string * Json.t) list;
}

val to_buffer :
  Stdlib.Buffer.t ->
  ?extra:phase list ->
  processes:(int * string) list ->
  threads:((int * int) * string) list ->
  Sim.Probe.event list ->
  unit

val to_string :
  ?extra:phase list ->
  processes:(int * string) list ->
  threads:((int * int) * string) list ->
  Sim.Probe.event list ->
  string

val write_file :
  string ->
  ?extra:phase list ->
  processes:(int * string) list ->
  threads:((int * int) * string) list ->
  Sim.Probe.event list ->
  unit

(** Span-tree reconstruction from the provenance event stream.

    {!Sim.Engine} emits provenance as flat [Instant] events in cat ["prov"]
    ([span_begin] / [span_end] / [point] / [edge]); this module folds the
    stream back into a tree with causal edges and annotation points.

    Two span flavours exist, distinguished by {!span.sync}:
    - {b sync} spans (opened via [Sim.Engine.with_span]) nest strictly
      within their parent on one fiber — their exclusive times telescope,
      so they form an exact partition of the parent's duration.
    - {b detached} spans (opened via [Sim.Engine.span_open]) may overlap
      siblings and outlive their parent — per-peer RDMA writes, client
      requests, pipelined batches, elections. *)

type span = {
  id : int;
  parent : int;  (** 0 = root *)
  name : string;
  pid : int;
  tid : int;
  start : int;  (** virtual ns *)
  sync : bool;
  args : (string * string) list;  (** open-time args, bookkeeping keys stripped *)
  mutable finish : int;  (** -1 while open *)
  mutable end_args : (string * string) list;
  mutable children : int list;  (** ascending ids *)
}

type edge = { src : int; dst : int; ekind : string; ets : int }

type point = {
  span : int;
  pname : string;
  pts : int;
  ppid : int;
  pargs : (string * string) list;
}

type t = {
  spans : (int, span) Hashtbl.t;
  mutable roots : int list;  (** ascending; includes orphans whose parent was ring-dropped *)
  mutable edges : edge list;  (** stream order *)
  mutable points : point list;  (** stream order *)
  mutable dropped : int;  (** malformed / dangling prov events (ring overflow) *)
}

val of_events : Sim.Probe.event list -> t
(** Build from a probe event stream (other categories are ignored).
    Total: dangling references are counted in [dropped], never raised. *)

val span : t -> int -> span option
val is_open : span -> bool

val duration : span -> int
(** [finish - start]; 0 for open spans. *)

val spans : t -> span list
(** All spans, ascending id. *)

val size : t -> int
val fold : t -> ('a -> span -> 'a) -> 'a -> 'a
val points_of : t -> int -> point list

val arg : (string * string) list -> string -> string option
val int_arg : (string * string) list -> string -> int option

val check : t -> string list
(** Well-formedness violations ([] = well-formed): every referenced parent
    precedes its child (ids are allocation-ordered, so this also rules out
    cycles), children start no earlier than their parent, and closed sync
    spans do not outlive a closed parent. *)

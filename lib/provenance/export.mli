(** Deterministic span-tree exporters.

    Both print through the [Json] codec and follow the {!Trace.Chrome}
    determinism rules: integer virtual-time arithmetic only, spans in
    ascending id, edges/points in stream order — equal seeds produce
    byte-identical output. *)

val json_string : Tree.t -> string
(** Standalone JSON document, schema ["mu-provenance/1"]: all spans
    (ascending id, with parent/children links, open spans have
    ["end":-1]), causal edges, lifecycle points, and the dropped-event
    count. *)

val write_json : string -> Tree.t -> unit

val trace_events : Tree.t -> Trace.Chrome.phase list
(** Chrome-trace phases for [Trace.Chrome.to_buffer ~extra]: one
    nestable-async ["b"]/["e"] pair per span (open spans get no ["e"])
    plus flow ["s"]/["f"] arrows for every causal edge. *)

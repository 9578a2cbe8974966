(** Top-N report over folded stacks ({!Vt.folded} output).

    Per-frame self (exclusive, frame is leaf) and total (frame appears
    anywhere on the stack, counted once per stack) nanoseconds, with
    deterministic ordering: descending ns, then frame name. *)

type entry = { frame : string; self_ns : int; total_ns : int }

val of_folded : (string list * int) list -> entry list
(** Sorted by frame name. *)

val pp : ?top:int -> Format.formatter -> (string list * int) list -> unit
(** [top] defaults to 15. *)

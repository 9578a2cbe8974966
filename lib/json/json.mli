(** A minimal JSON value type with a deterministic printer and a strict
    parser — the repo's policy is to carry no external JSON dependency,
    so every JSON document the program reads or writes goes through this
    codec. Printing preserves
    object field order and formats numbers stably, so equal values yield
    byte-identical documents. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val num_of_int : int -> t

val to_int : t -> int option
(** [Some i] only for numbers that are exact integers within the float
    53-bit mantissa. *)

val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option

val member : string -> t -> t option
(** Field lookup on an object; [None] on missing field or non-object. *)

val to_string : t -> string

val to_buffer : Buffer.t -> t -> unit
(** Append [to_string v] to the buffer — for writers that stream a
    document piecewise (Chrome traces). *)

val of_string : string -> (t, string) result
(** Strict parse of a complete document (trailing garbage is an error).
    The error carries a byte offset. *)

(** Alert log: chronological firing/clearing edges.

    Each entry carries the virtual time, sampler epoch and window
    ordinal of the transition, so alerts line up against traces and
    sampler series. {!to_json} prints one [Json.t] and is byte-stable —
    same-seed runs compare equal with [cmp]. *)

type entry = {
  seq : int;
  at : int;  (** virtual ns of the window close that made the edge *)
  epoch : int;
  window : int;
  rule : string;
  edge : [ `Fire | `Clear ];
  detail : string;
}

type t

val create : unit -> t

val add :
  t ->
  at:int ->
  epoch:int ->
  window:int ->
  rule:string ->
  edge:[ `Fire | `Clear ] ->
  detail:string ->
  entry
(** Append an edge (and update the firing set); returns the entry. *)

val entries : t -> entry list
(** Chronological. *)

val length : t -> int

val firing : t -> string list
(** Rules currently firing, sorted by name. *)

val to_json : t -> string
(** [mu-monitor-log/1]: entries in order plus the final firing set. *)

val pp_entry : entry Fmt.t

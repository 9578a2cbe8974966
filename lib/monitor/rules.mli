(** Alert rules with hysteresis.

    A rule is a named check evaluated once per {!Slo.window}. It fires
    after [fire_after] consecutive breaching windows and clears after
    [clear_after] consecutive clean ones, so a single noisy window
    cannot flap an alert. Checks read only the window (two keep one
    window of history in a closure), making equal-seed runs produce
    identical edge sequences. *)

type outcome = Ok | Breach of string  (** [Breach detail] *)

type spec = {
  name : string;
  fire_after : int;  (** consecutive breaching windows before firing *)
  clear_after : int;  (** consecutive clean windows before clearing *)
  check : Slo.window -> outcome;
}

type t
(** A rule instance: spec plus hysteresis state. *)

type edge = [ `Fire | `Clear ]

val make : spec -> t
(** Raises [Invalid_argument] unless [fire_after] and [clear_after] are
    both >= 1. *)

val name : t -> string
val firing : t -> bool

val step : t -> Slo.window -> (edge * string) option
(** Evaluate one window; [Some] only on a state transition, carrying
    the breach detail (on [`Fire]) or ["recovered"] (on [`Clear]). *)

(** {1 Built-in checks}

    Checks on absent metrics evaluate to [Ok]. *)

val gauge_above :
  ?fire_after:int ->
  ?clear_after:int ->
  name:string ->
  metric:string ->
  agg:Slo.agg ->
  limit:float ->
  unit ->
  spec
(** Breaches while the window's [agg] of gauge [metric] is above
    [limit]. *)

val defaults : unit -> spec list
(** The standard rule set: commit p50/p99 latency bands, commit-rate
    floor, shed-rate ceiling, serving queue depth, replication-latency
    burst, leader flap, quorum loss, quorum stall (a finished run keeps
    it breaching at the tail), rejoin lag. The rate-of-change and stall
    rules keep closure state, so build a fresh list per monitor. *)

(** Open-loop client populations for the serving tier.

    A population models [clients] independent clients — hundreds of
    thousands to millions — without a fiber per client: arrivals are
    drawn from the aggregate arrival process (rate [clients/think_ns],
    optionally diurnally modulated), keys follow a Zipf distribution,
    and a busy-until table enforces per-client think times. All
    randomness comes from the [Sim.Rng.t] passed at creation — never
    from an engine stream — so constructing a population cannot perturb
    a serving-off run, and same-seed serving runs are deterministic. *)

type process =
  | Poisson  (** Constant-rate arrivals. *)
  | Diurnal of { period_ns : int; amplitude : float }
      (** Rate modulated by [1 + amplitude·sin(2π·t/period)], floored at
          5% of base ({!Workload.Generators.diurnal_rate}). *)

type t

type arrival = {
  gap_ns : int;  (** Inter-arrival gap from the time of the draw. *)
  client : int;  (** Modeled client id in [0, clients). *)
  key : string;  (** Zipf-distributed key, [key-%08d]. *)
}

val create :
  ?process:process ->
  ?theta:float ->
  ?keys:int ->
  clients:int ->
  think_ns:int ->
  Sim.Rng.t ->
  t
(** [theta] defaults to 0.99 (YCSB), [keys] to 100_000, [process] to
    {!Poisson}. Raises [Invalid_argument] on non-positive sizes. *)

val rate : t -> now:int -> float
(** Aggregate offered rate (arrivals per ns) at virtual time [now]. *)

val next : t -> now:int -> arrival
(** Draw the next arrival at virtual time [now]. *)

val arrivals : t -> int
(** Arrivals drawn so far. *)

val suppressed : t -> int
(** Client picks redrawn because the picked client was still thinking —
    a measure of how saturated the population is. *)

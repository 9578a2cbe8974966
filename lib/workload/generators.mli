(** Workload generators for the evaluation harness (§7).

    The paper's experiments use small fixed-size payloads (64 B unless
    stated, §7), KV operations over a keyspace, and a stream of exchange
    orders. All generators are deterministic given their PRNG. *)

val payload : Sim.Rng.t -> size:int -> Bytes.t
(** Random opaque payload of the given size. *)

val zipf : Sim.Rng.t -> n:int -> theta:float -> int
(** Zipfian key index in [0, n) with skew [theta] (0 = uniform; 0.99 =
    YCSB default). Uses the standard rejection-free approximation. *)

val zipf_sampler : n:int -> theta:float -> Sim.Rng.t -> int
(** [zipf_sampler ~n ~theta] resolves the CDF once and returns a sampler
    that draws what {!zipf} draws from the same PRNG — the same index
    from the same single [Sim.Rng.float] — narrowing each search with a
    guide table of up to 65 536 entries. For hot loops. *)

val key_name : int -> string
(** [key_name i] is [Printf.sprintf "key-%08d" i], without the format
    interpreter for [i] in [\[0, 10^8)]. *)

(** {1 Arrival-process samplers}

    Used by the serving tier's open-loop population model. Each draws
    {e only} from the [Sim.Rng.t] passed in — never from an engine
    stream — so serving-off runs stay byte-identical to seed. *)

val poisson_gap : Sim.Rng.t -> rate:float -> int
(** Exponential inter-arrival gap (≥ 1 ns) for a Poisson process of
    [rate] events per ns. Raises [Invalid_argument] on a non-positive
    rate. *)

val diurnal_rate : base:float -> amplitude:float -> period_ns:int -> now:int -> float
(** Sinusoidal day/night modulation of a base arrival rate:
    [base · (1 + amplitude · sin(2π · now/period))], floored at 5% of
    [base]. Pure — no randomness. *)

val think_gap : Sim.Rng.t -> mean_ns:int -> int
(** Exponential per-client think time with the given mean. *)

type kv_mix = { read_ratio : float; keys : int; value_size : int; theta : float }

val default_kv_mix : kv_mix

val kv_command : Sim.Rng.t -> kv_mix -> client:int -> req_id:int -> Apps.Kv_store.command
(** One GET/PUT per the mix. *)

(** A stream of plausible exchange order flow: limit orders around a
    drifting midpoint, occasional market orders and cancels. *)
type order_flow

val order_flow : Sim.Rng.t -> order_flow
(** The midpoint starts at 10 000; limit prices sit within about 10
    ticks of it. *)

val next_order : order_flow -> Apps.Exchange.command
(** Generate the next command; ids are unique and increasing. *)


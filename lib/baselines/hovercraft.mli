(** HovercRaft latency model (Kogias & Bugnion, EuroSys'20).

    The paper measures HovercRaft's request latency at 30-60 µs — "more
    than an order of magnitude more than that of Mu" — and drops it from
    the detailed comparison (§7). We keep it as a calibrated latency
    model so the Fig. 4 context and the fail-over comparison (~10 ms,
    §7.3) can be reported. *)

val failover : Sim.Distribution.t
(** Fail-over latency (~10 ms). *)

val create : Common.t -> Common.engine

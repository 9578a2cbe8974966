(* Per-request replication latency. *)
let replication =
  Sim.Distribution.Shifted
    { base = 28_000.0; jitter = Lognormal { median = 14_000.0; sigma = 0.5 } }

let failover =
  Sim.Distribution.Shifted
    { base = 9_000_000.0; jitter = Lognormal { median = 1_000_000.0; sigma = 0.4 } }

let create (c : Common.t) =
  let rng = Sim.Host.rng c.Common.hosts.(0) in
  let replicate _payload =
    let dt = Sim.Distribution.sample_ns replication rng in
    Sim.Host.idle c.Common.hosts.(0) dt;
    dt
  in
  Common.with_telemetry c { Common.name = "HovercRaft"; replicate }

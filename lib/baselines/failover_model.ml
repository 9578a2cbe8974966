let hermes =
  (* Membership lease expiry dominates. *)
  Sim.Distribution.Shifted
    { base = 150_000_000.0; jitter = Lognormal { median = 12_000_000.0; sigma = 0.3 } }

let hovercraft = Hovercraft.failover

let sample_us d rng = float_of_int (Sim.Distribution.sample_ns d rng) /. 1000.0

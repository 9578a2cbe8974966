let () =
  Alcotest.run "mu"
    [
      ("sim", Test_sim.suite);
      ("rdma", Test_rdma.suite);
      ("log", Test_log.suite);
      ("election", Test_election.suite);
      ("permissions", Test_permissions.suite);
      ("replication", Test_replication.suite);
      ("smr", Test_smr.suite);
      ("membership", Test_membership.suite);
      ("order-book", Test_order_book.suite);
      ("apps", Test_apps.suite);
      ("herd", Test_herd.suite);
      ("baselines", Test_baselines.suite);
      ("dare-election", Test_dare_election.suite);
      ("workload", Test_workload.suite);
      ("replayer-recycler", Test_replayer.suite);
      ("invariants", Test_invariants.suite);
      ("faults", Test_faults.suite);
      ("recovery", Test_recovery.suite);
      ("misc", Test_misc.suite);
      ("trace", Test_trace.suite);
      ("telemetry", Test_telemetry.suite);
      ("provenance", Test_provenance.suite);
      ("properties", Test_properties.suite);
      ("serving", Test_serving.suite);
      ("monitor", Test_monitor.suite);
      ("profile", Test_profile.suite);
      ("modelcheck", Test_modelcheck.suite);
      ("park", Test_park.suite);
      ("determinism", Test_determinism.suite);
    ]

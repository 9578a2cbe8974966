(* Tests for the background plane: pull-score leader election (§5.1). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_cluster ?(cfg = Mu.Config.default) f =
  let e = Util.engine () in
  let smr = Util.mu_cluster ~cfg e in
  let result = ref None in
  Sim.Engine.spawn e ~name:"driver" (fun () ->
      result := Some (f e smr);
      Mu.Smr.stop smr;
      Sim.Engine.halt e);
  Sim.Engine.run ~until:60_000_000_000 e;
  match !result with Some r -> r | None -> Alcotest.fail "scenario did not finish"

let lowest_id_becomes_leader () =
  with_cluster (fun e smr ->
      let leader = Util.leader_of smr e in
      check_int "replica 0 leads" 0 leader.Mu.Replica.id;
      Array.iter
        (fun (r : Mu.Replica.t) ->
          check_int
            (Printf.sprintf "replica %d agrees" r.Mu.Replica.id)
            0 r.Mu.Replica.leader_estimate)
        (Mu.Smr.replicas smr))

let heartbeats_advance () =
  with_cluster (fun e smr ->
      let r0 = Mu.Smr.replica smr 0 in
      let v0 = Mu.Election.read_own_heartbeat r0 in
      Sim.Engine.sleep e 1_000_000;
      let v1 = Mu.Election.read_own_heartbeat r0 in
      check "counter moved" true (v1 > v0))

let scores_saturate_when_healthy () =
  with_cluster (fun e smr ->
      Sim.Engine.sleep e 3_000_000;
      Array.iter
        (fun (r : Mu.Replica.t) ->
          Mu.Replica.Itbl.iter
            (fun peer score ->
              check
                (Printf.sprintf "replica %d's score for %d at max" r.Mu.Replica.id peer)
                true
                (score = Util.default_cal.Sim.Calibration.score_max))
            r.Mu.Replica.scores)
        (Mu.Smr.replicas smr))

let paused_leader_detected () =
  with_cluster (fun e smr ->
      let r0 = Mu.Smr.replica smr 0 and r1 = Mu.Smr.replica smr 1 in
      Sim.Engine.sleep e 2_000_000;
      let t0 = Sim.Engine.now e in
      Sim.Host.pause r0.Mu.Replica.host;
      Util.wait_for (fun () -> not (Mu.Election.is_alive r1 0)) e;
      let dt = Sim.Engine.now e - t0 in
      (* 14 score decrements at the 40 us read interval ≈ 600 us. *)
      check "detection near 600us" true (dt > 450_000 && dt < 900_000);
      (* The role fiber runs on its own cadence; give it one interval. *)
      Util.wait_for (fun () -> r1.Mu.Replica.leader_estimate = 1) e;
      check_int "r1 takes over" 1 r1.Mu.Replica.leader_estimate)

let stopped_process_detected () =
  with_cluster (fun e smr ->
      let r0 = Mu.Smr.replica smr 0 and r1 = Mu.Smr.replica smr 1 in
      Sim.Engine.sleep e 2_000_000;
      Sim.Host.stop_process r0.Mu.Replica.host;
      Util.wait_for (fun () -> Mu.Replica.is_leader r1) e;
      check_int "r1 leads" 1 r1.Mu.Replica.leader_estimate)

let dead_host_detected () =
  with_cluster (fun e smr ->
      let r0 = Mu.Smr.replica smr 0 and r1 = Mu.Smr.replica smr 1 in
      Sim.Engine.sleep e 2_000_000;
      Sim.Host.kill_host r0.Mu.Replica.host;
      (* Reads now time out (the longer RDMA timeout, §5.1); detection is
         slower but still bounded. *)
      Util.wait_for (fun () -> Mu.Replica.is_leader r1) e;
      check "r1 eventually leads" true (Mu.Replica.is_leader r1))

let recovered_leader_reclaims () =
  with_cluster (fun e smr ->
      let r0 = Mu.Smr.replica smr 0 and r1 = Mu.Smr.replica smr 1 in
      Sim.Engine.sleep e 2_000_000;
      Sim.Host.pause r0.Mu.Replica.host;
      Util.wait_for (fun () -> Mu.Replica.is_leader r1) e;
      Sim.Host.resume r0.Mu.Replica.host;
      (* Hysteresis: r0 must climb back above the recovery threshold, then
         every replica flips back to the lowest id. *)
      Util.wait_for
        (fun () -> Mu.Replica.is_leader r0 && not (Mu.Replica.is_leader r1))
        e;
      check_int "estimates back to 0" 0 r1.Mu.Replica.leader_estimate)

let hysteresis_no_flapping () =
  (* A replica paused briefly (shorter than the detection window) must not
     be declared failed at all. *)
  with_cluster (fun e smr ->
      let r0 = Mu.Smr.replica smr 0 and r1 = Mu.Smr.replica smr 1 in
      Sim.Engine.sleep e 2_000_000;
      Sim.Host.pause r0.Mu.Replica.host;
      Sim.Engine.sleep e 200_000;
      (* < 14 reads *)
      Sim.Host.resume r0.Mu.Replica.host;
      Sim.Engine.sleep e 2_000_000;
      check "r0 never lost leadership" true (Mu.Replica.is_leader r0);
      check "r1 never took over" false (Mu.Replica.is_leader r1))

let role_generation_counts_changes () =
  with_cluster (fun e smr ->
      let r0 = Mu.Smr.replica smr 0 and r1 = Mu.Smr.replica smr 1 in
      Sim.Engine.sleep e 2_000_000;
      let g1 = r1.Mu.Replica.role_generation in
      Sim.Host.pause r0.Mu.Replica.host;
      Util.wait_for (fun () -> Mu.Replica.is_leader r1) e;
      Sim.Host.resume r0.Mu.Replica.host;
      Util.wait_for (fun () -> not (Mu.Replica.is_leader r1)) e;
      check "two role changes at r1" true (r1.Mu.Replica.role_generation >= g1 + 2))

let fate_sharing_stops_heartbeat () =
  let cfg =
    { Mu.Config.default with Mu.Config.fate_sharing = true; fate_sharing_stuck_after = 500_000 }
  in
  with_cluster ~cfg (fun e smr ->
      let r0 = Mu.Smr.replica smr 0 in
      Sim.Engine.sleep e 2_000_000;
      (* Wedge the replication plane: pretend a propose has been stuck. *)
      r0.Mu.Replica.propose_started_at <- Some (Sim.Engine.now e - 1_000_000);
      Sim.Engine.sleep e 1_000_000;
      let v0 = Mu.Election.read_own_heartbeat r0 in
      Sim.Engine.sleep e 1_000_000;
      let v1 = Mu.Election.read_own_heartbeat r0 in
      check "heartbeat frozen while stuck" true (v0 = v1);
      (* Other replicas depose the wedged leader. *)
      let r1 = Mu.Smr.replica smr 1 in
      Util.wait_for (fun () -> Mu.Replica.is_leader r1) e;
      r0.Mu.Replica.propose_started_at <- None;
      Sim.Engine.sleep e 1_000_000;
      let v2 = Mu.Election.read_own_heartbeat r0 in
      Sim.Engine.sleep e 1_000_000;
      check "heartbeat resumes when unstuck" true
        (Mu.Election.read_own_heartbeat r0 > v2))

let without_fate_sharing_stuck_leader_keeps_beating () =
  with_cluster (fun e smr ->
      let r0 = Mu.Smr.replica smr 0 in
      Sim.Engine.sleep e 2_000_000;
      r0.Mu.Replica.propose_started_at <- Some 0;
      Sim.Engine.sleep e 2_000_000;
      let v0 = Mu.Election.read_own_heartbeat r0 in
      Sim.Engine.sleep e 1_000_000;
      check "still beating (flag off)" true
        (Mu.Election.read_own_heartbeat r0 > v0))

(* Each pair of replicas shares one fd QP pair for both directions. A
   partition times out both sides' reads, leaving both ends in ERR; after
   the heal each side's detector reconnects the pair of a peer it scores
   dead, and both read and score each other again. *)
let partitioned_fd_pair_reconnects () =
  with_cluster (fun e smr ->
      let r0 = Mu.Smr.replica smr 0 and r1 = Mu.Smr.replica smr 1 in
      let fd (r : Mu.Replica.t) pid = (Mu.Replica.peer r pid).Mu.Replica.fd_qp in
      let err qp = Rdma.Qp.state qp = Rdma.Verbs.Err in
      Sim.Engine.sleep e 2_000_000;
      let fabric = Sim.Engine.fabric e in
      Sim.Fabric.partition fabric [ 0 ] [ 1; 2 ];
      Util.wait_for
        (fun () ->
          err (fd r0 1) && err (fd r1 0)
          && (not (Mu.Election.is_alive r0 1))
          && not (Mu.Election.is_alive r1 0))
        e;
      Sim.Fabric.heal fabric;
      let reads (r : Mu.Replica.t) = r.Mu.Replica.metrics.Mu.Metrics.fd_reads in
      let reads0 = reads r0 and reads1 = reads r1 in
      Util.wait_for (fun () -> Mu.Election.is_alive r0 1 && Mu.Election.is_alive r1 0) e;
      check "both ends back in RTS" true
        (Rdma.Qp.state (fd r0 1) = Rdma.Verbs.Rts && Rdma.Qp.state (fd r1 0) = Rdma.Verbs.Rts);
      check "both sides read again" true (reads r0 > reads0 && reads r1 > reads1);
      check_int "replica 0 leads again" 0 (Util.leader_of smr e).Mu.Replica.id)

let suite =
  [
    ("lowest id becomes leader", `Quick, lowest_id_becomes_leader);
    ("heartbeats advance", `Quick, heartbeats_advance);
    ("scores saturate when healthy", `Quick, scores_saturate_when_healthy);
    ("paused leader detected ~600us", `Quick, paused_leader_detected);
    ("stopped process detected", `Quick, stopped_process_detected);
    ("dead host detected", `Quick, dead_host_detected);
    ("recovered leader reclaims", `Quick, recovered_leader_reclaims);
    ("hysteresis: no flapping on short pause", `Quick, hysteresis_no_flapping);
    ("role generation counts changes", `Quick, role_generation_counts_changes);
    ("fate sharing stops heartbeat", `Quick, fate_sharing_stops_heartbeat);
    ("no fate sharing: stuck leader beats", `Quick, without_fate_sharing_stuck_leader_keeps_beating);
    ("partitioned fd pair reconnects", `Quick, partitioned_fd_pair_reconnects);
  ]

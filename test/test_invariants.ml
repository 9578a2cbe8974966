(* Tests for the invariant checker and the metrics counters. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_smr ?(cfg = Mu.Config.default) f =
  let e = Util.engine () in
  let smr =
    Mu.Smr.create e Util.default_cal cfg ~make_app:(fun _ -> Mu.Smr.stateless_app Fun.id)
  in
  Mu.Smr.start smr;
  let result = ref None in
  Sim.Engine.spawn e ~name:"driver" (fun () ->
      result := Some (f e smr);
      Mu.Smr.stop smr;
      Sim.Engine.halt e);
  Sim.Engine.run ~until:120_000_000_000 e;
  match !result with Some r -> r | None -> Alcotest.fail "scenario did not finish"

let healthy_cluster_has_no_violations () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      for _ = 1 to 20 do
        ignore (Mu.Smr.submit smr (Bytes.make 32 'a'))
      done;
      Sim.Engine.sleep e 2_000_000;
      Alcotest.(check (list string))
        "clean" []
        (List.map
           (Fmt.str "%a" Mu.Invariants.pp_violation)
           (Mu.Invariants.check_all (Mu.Smr.replicas smr))))

let violations_after_failover_none () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      ignore (Mu.Smr.submit smr (Bytes.make 32 'a'));
      let r0 = Mu.Smr.replica smr 0 in
      Sim.Host.pause r0.Mu.Replica.host;
      ignore (Mu.Smr.submit smr (Bytes.make 32 'b'));
      Sim.Host.resume r0.Mu.Replica.host;
      Util.wait_for (fun () -> Mu.Replica.is_leader r0) e;
      ignore (Mu.Smr.submit smr (Bytes.make 32 'c'));
      Sim.Engine.sleep e 2_000_000;
      check_int "no violations through failover" 0
        (List.length (Mu.Invariants.check_all (Mu.Smr.replicas smr))))

let detector_catches_planted_disagreement () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      ignore (Mu.Smr.submit smr (Bytes.make 32 'a'));
      ignore (Mu.Smr.submit smr (Bytes.make 32 'a'));
      (* Corrupt a decided slot on one replica. *)
      let r2 = Mu.Smr.replica smr 2 in
      Mu.Log.write_slot_local r2.Mu.Replica.log 0 ~proposal:99L
        ~value:(Bytes.of_string "corrupt");
      Mu.Log.set_fuo r2.Mu.Replica.log (max 1 (Mu.Log.fuo r2.Mu.Replica.log));
      let vs = Mu.Invariants.agreement (Mu.Smr.replicas smr) in
      check "disagreement detected" true (vs <> []);
      ignore e)

let detector_catches_planted_hole () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      for _ = 1 to 3 do
        ignore (Mu.Smr.submit smr (Bytes.make 32 'a'))
      done;
      let leader = Option.get (Mu.Smr.leader smr) in
      Mu.Log.zero_slot_local leader.Mu.Replica.log (leader.Mu.Replica.applied + 0);
      (* Zeroing an unapplied decided slot is a hole... unless everything
         is already applied; force the range to be non-empty. *)
      if leader.Mu.Replica.applied < Mu.Log.fuo leader.Mu.Replica.log then
        check "hole detected" true (Mu.Invariants.no_holes (Mu.Smr.replicas smr) <> [])
      else begin
        leader.Mu.Replica.applied <- leader.Mu.Replica.applied - 1;
        Mu.Log.zero_slot_local leader.Mu.Replica.log leader.Mu.Replica.applied;
        check "hole detected" true (Mu.Invariants.no_holes (Mu.Smr.replicas smr) <> [])
      end;
      ignore e)

let detector_catches_double_writer () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      let r2 = Mu.Smr.replica smr 2 in
      List.iter
        (fun (p : Mu.Replica.peer) -> Rdma.Qp.set_access p.Mu.Replica.repl_qp Rdma.Verbs.access_rw)
        r2.Mu.Replica.peers;
      check "double writer detected" true
        (Mu.Invariants.single_writer (Mu.Smr.replicas smr) <> []);
      ignore e)

let metrics_count_activity () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      for _ = 1 to 10 do
        ignore (Mu.Smr.submit smr (Bytes.make 32 'm'))
      done;
      Sim.Engine.sleep e 2_000_000;
      let leader = Option.get (Mu.Smr.leader smr) in
      let m = leader.Mu.Replica.metrics in
      (* Client requests commit through the leader's window, not through
         [Replication.propose]: only establish's no-op is a propose. *)
      check "establish proposed" true (m.Mu.Metrics.proposes >= 1);
      check "proposes committed" true
        (m.Mu.Metrics.commits >= 1 && m.Mu.Metrics.commits <= m.Mu.Metrics.proposes);
      check "requests applied at leader" true (m.Mu.Metrics.entries_applied >= 10);
      check "one prepare (then omitted)" true
        (m.Mu.Metrics.prepare_phases >= 1
        && m.Mu.Metrics.prepare_phases <= m.Mu.Metrics.proposes);
      check "accept per commit" true (m.Mu.Metrics.accept_rounds >= m.Mu.Metrics.commits);
      check "permission request made" true (m.Mu.Metrics.permission_requests >= 1);
      check "fd reads running" true (m.Mu.Metrics.fd_reads > 100);
      let follower = Mu.Smr.replica smr 1 in
      check "grants at follower" true
        (follower.Mu.Replica.metrics.Mu.Metrics.permission_grants >= 1);
      check "applies at follower" true
        (follower.Mu.Replica.metrics.Mu.Metrics.entries_applied >= 10))

let metrics_abort_and_slow_path_counted () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      ignore (Mu.Smr.submit smr (Bytes.make 8 'x'));
      let r0 = Mu.Smr.replica smr 0 in
      (* Depose and restore the leader a few times to force aborts. *)
      for _ = 1 to 3 do
        Sim.Host.pause r0.Mu.Replica.host;
        ignore (Mu.Smr.submit smr (Bytes.make 8 'y'));
        Sim.Host.resume r0.Mu.Replica.host;
        Util.wait_for
          (fun () ->
            match Mu.Smr.leader smr with
            | Some r -> r.Mu.Replica.id = 0 && not r.Mu.Replica.need_new_followers
            | None -> false)
          e
      done;
      let sum f =
        Array.fold_left
          (fun acc (r : Mu.Replica.t) -> acc + f r.Mu.Replica.metrics)
          0 (Mu.Smr.replicas smr)
      in
      check "aborts happened" true (sum (fun m -> m.Mu.Metrics.aborts) >= 3);
      check "grants on each takeover" true (sum (fun m -> m.Mu.Metrics.permission_grants) >= 6);
      check "permission switches took a path" true
        (sum (fun m -> m.Mu.Metrics.perm_fast_path + m.Mu.Metrics.perm_slow_path) > 0))

let suite =
  [
    ("healthy cluster clean", `Quick, healthy_cluster_has_no_violations);
    ("no violations through failover", `Quick, violations_after_failover_none);
    ("catches planted disagreement", `Quick, detector_catches_planted_disagreement);
    ("catches planted hole", `Quick, detector_catches_planted_hole);
    ("catches double writer", `Quick, detector_catches_double_writer);
    ("metrics count activity", `Quick, metrics_count_activity);
    ("metrics count aborts and slow path", `Quick, metrics_abort_and_slow_path_counted);
  ]

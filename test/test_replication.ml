(* Tests for the replication plane (§4): propose, prepare/accept, leader
   catch-up, follower update, omit-prepare, aborts, and the agreement /
   validity invariants of Appendix A under leader changes. *)

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
  Sim.Engine.run ~until:120_000_000_000 e;
  match !result with Some r -> r | None -> Alcotest.fail "scenario did not finish"

let on_replica (r : Mu.Replica.t) f =
  let done_ = Sim.Engine.Ivar.create (Mu.Replica.engine r) in
  Sim.Host.spawn r.Mu.Replica.host ~name:"test-op" (fun () ->
      Sim.Engine.Ivar.fill done_ (f ()));
  Sim.Engine.Ivar.read done_

let propose (r : Mu.Replica.t) s =
  on_replica r (fun () ->
      try Ok (Mu.Replication.propose r (Bytes.of_string s))
      with Mu.Replication.Aborted m -> Error m)

let propose_ok r s =
  match propose r s with
  | Ok idx -> idx
  | Error m -> Alcotest.fail ("propose aborted: " ^ m)

let slot_value (r : Mu.Replica.t) idx =
  Option.map
    (fun (s : Mu.Log.slot) -> Bytes.to_string s.Mu.Log.value)
    (Mu.Log.read_slot r.Mu.Replica.log idx)

(* No two replicas disagree on any decided slot (Theorem A.7). *)
let check_agreement smr =
  let replicas = Mu.Smr.replicas smr in
  Array.iter
    (fun (a : Mu.Replica.t) ->
      Array.iter
        (fun (b : Mu.Replica.t) ->
          if a.Mu.Replica.id < b.Mu.Replica.id then
            let bound = min (Mu.Log.fuo a.Mu.Replica.log) (Mu.Log.fuo b.Mu.Replica.log) in
            for i = 0 to bound - 1 do
              match slot_value a i, slot_value b i with
              | Some va, Some vb ->
                Alcotest.(check string)
                  (Printf.sprintf "agreement at slot %d (replicas %d,%d)" i a.Mu.Replica.id
                     b.Mu.Replica.id)
                  va vb
              | _ -> ()
            done)
        replicas)
    replicas

let basic_propose_commits () =
  with_cluster (fun e smr ->
      let leader = Util.leader_of smr e in
      let idx = propose_ok leader "hello" in
      check_int "first value at slot 0" 0 idx;
      check_int "fuo advanced" 1 (Mu.Log.fuo leader.Mu.Replica.log);
      (* The entry is decided: present at a majority. *)
      let copies =
        Array.to_list (Mu.Smr.replicas smr)
        |> List.filter (fun r -> slot_value r 0 = Some "hello")
      in
      check "at a majority" true (List.length copies >= 2))

let proposes_are_ordered () =
  with_cluster (fun e smr ->
      let leader = Util.leader_of smr e in
      for i = 0 to 9 do
        check_int "sequential slots" i (propose_ok leader (Printf.sprintf "v%d" i))
      done;
      for i = 0 to 9 do
        Alcotest.(check (option string))
          "content" (Some (Printf.sprintf "v%d" i)) (slot_value leader i)
      done)

let propose_replication_latency () =
  with_cluster (fun e smr ->
      let leader = Util.leader_of smr e in
      ignore (propose_ok leader "warm");
      let t0 = Sim.Engine.now e in
      ignore (propose_ok leader "timed");
      let dt = Sim.Engine.now e - t0 in
      (* The paper's headline: ~1.3 us for a small request (Fig. 4). *)
      check (Printf.sprintf "fast path ~1.3us (got %dns)" dt) true (dt > 900 && dt < 2_500))

let omit_prepare_engages () =
  with_cluster (fun e smr ->
      let leader = Util.leader_of smr e in
      check "prepare required at first" false leader.Mu.Replica.skip_prepare;
      ignore (propose_ok leader "a");
      check "omit-prepare active after clean prepare" true leader.Mu.Replica.skip_prepare)

let omit_prepare_disabled_by_config () =
  let cfg = { Mu.Config.default with Mu.Config.disable_omit_prepare = true } in
  with_cluster ~cfg (fun e smr ->
      let leader = Util.leader_of smr e in
      ignore (propose_ok leader "a");
      check "never skips" false leader.Mu.Replica.skip_prepare;
      ignore (propose_ok leader "b");
      Alcotest.(check (option string)) "still correct" (Some "b") (slot_value leader 1))

let followers_replicate_silently () =
  with_cluster (fun e smr ->
      let leader = Util.leader_of smr e in
      ignore (propose_ok leader "x");
      ignore (propose_ok leader "y");
      (* Followers hold the data without having sent anything: their logs
         were written one-sidedly. *)
      Array.iter
        (fun (r : Mu.Replica.t) ->
          if r.Mu.Replica.id <> leader.Mu.Replica.id then begin
            Alcotest.(check (option string)) "slot0 at follower" (Some "x") (slot_value r 0);
            Alcotest.(check (option string)) "slot1 at follower" (Some "y") (slot_value r 1)
          end)
        (Mu.Smr.replicas smr);
      ignore e)

let commit_piggybacking () =
  with_cluster (fun e smr ->
      let leader = Util.leader_of smr e in
      ignore (propose_ok leader "first");
      Sim.Engine.sleep e 1_000_000;
      let r1 = Mu.Smr.replica smr 1 in
      (* Followers cannot know "first" is committed until the next entry
         exists (§4.2), so their FUO lags at 0. *)
      check_int "follower fuo lags" 0 (Mu.Log.fuo r1.Mu.Replica.log);
      ignore (propose_ok leader "second");
      Util.wait_for (fun () -> Mu.Log.fuo r1.Mu.Replica.log >= 1) e;
      check "follower committed first entry" true (Mu.Log.fuo r1.Mu.Replica.log >= 1))

let new_leader_catches_up () =
  with_cluster (fun e smr ->
      let r0 = Util.leader_of smr e in
      for i = 0 to 4 do
        ignore (propose_ok r0 (Printf.sprintf "v%d" i))
      done;
      Sim.Host.pause r0.Mu.Replica.host;
      let r1 = Mu.Smr.replica smr 1 in
      Util.wait_for (fun () -> Mu.Replica.is_leader r1) e;
      (* r1's log has all entries but its FUO lags (commit piggybacking);
         becoming leader brings it fully up to date (Listing 5). *)
      let idx = propose_ok r1 "from-r1" in
      check_int "appends after the old leader's entries" 5 idx;
      for i = 0 to 4 do
        Alcotest.(check (option string))
          "old entries preserved"
          (Some (Printf.sprintf "v%d" i))
          (slot_value r1 i)
      done;
      Sim.Host.resume r0.Mu.Replica.host;
      check_agreement smr)

let update_followers_on_leader_change () =
  with_cluster (fun e smr ->
      let r0 = Util.leader_of smr e in
      for i = 0 to 4 do
        ignore (propose_ok r0 (Printf.sprintf "v%d" i))
      done;
      Sim.Host.pause r0.Mu.Replica.host;
      let r1 = Mu.Smr.replica smr 1 and r2 = Mu.Smr.replica smr 2 in
      Util.wait_for (fun () -> Mu.Replica.is_leader r1) e;
      ignore (propose_ok r1 "new");
      (* Listing 6: r2 was brought up to date, including its FUO (the last
         entry itself remains pending until its successor exists — commit
         piggybacking). *)
      check "r2 fuo updated" true (Mu.Log.fuo r2.Mu.Replica.log >= 4);
      Alcotest.(check (option string)) "r2 has the data" (Some "v4") (slot_value r2 4);
      Sim.Host.resume r0.Mu.Replica.host;
      check_agreement smr)

let deposed_leader_aborts () =
  with_cluster (fun e smr ->
      let r0 = Util.leader_of smr e in
      ignore (propose_ok r0 "a");
      (* r1 grabs permissions behind r0's back (as a rising leader would). *)
      let r1 = Mu.Smr.replica smr 1 in
      let gen = on_replica r1 (fun () -> Mu.Permissions.request_permissions r1) in
      Util.wait_for (fun () -> List.length (Mu.Permissions.acked r1 ~gen) >= 3) e;
      (* r0's next propose must fail (lost write permission), not commit. *)
      (match propose r0 "b" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "deposed leader committed without permission");
      check "needs new followers after abort" true r0.Mu.Replica.need_new_followers;
      check_agreement smr)

let deposed_leader_recovers_by_reacquiring () =
  with_cluster (fun e smr ->
      let r0 = Util.leader_of smr e in
      ignore (propose_ok r0 "a");
      let r1 = Mu.Smr.replica smr 1 in
      let gen = on_replica r1 (fun () -> Mu.Permissions.request_permissions r1) in
      Util.wait_for (fun () -> List.length (Mu.Permissions.acked r1 ~gen) >= 3) e;
      (match propose r0 "b" with Error _ -> () | Ok _ -> Alcotest.fail "must abort");
      (* Still the lowest id: the next propose re-requests permission and
         succeeds (Listing 2 line 7). *)
      let idx = propose_ok r0 "b-retry" in
      check "committed on retry" true (idx >= 1);
      check_agreement smr)

let competing_leaders_never_disagree () =
  with_cluster (fun e smr ->
      (* Interleave proposes from two would-be leaders many times. Aborts
         are expected; disagreement is not. *)
      let r0 = Mu.Smr.replica smr 0 and r1 = Mu.Smr.replica smr 1 in
      Util.wait_for (fun () -> Mu.Replica.is_leader r0) e;
      let committed = ref 0 in
      for i = 0 to 19 do
        let r = if i mod 2 = 0 then r0 else r1 in
        (match propose r (Printf.sprintf "c%d" i) with
        | Ok _ -> incr committed
        | Error _ -> ());
        if i mod 5 = 4 then Sim.Engine.sleep e 300_000
      done;
      check "some proposals committed" true (!committed > 0);
      check_agreement smr)

let validity_only_proposed_values () =
  with_cluster (fun e smr ->
      let leader = Util.leader_of smr e in
      let proposed = List.init 8 (fun i -> Printf.sprintf "val%d" i) in
      List.iter (fun v -> ignore (propose_ok leader v)) proposed;
      (* Every decided value was proposed (Theorem A.4); noops from
         establishment may also appear but we issued none here. *)
      Array.iter
        (fun (r : Mu.Replica.t) ->
          for i = 0 to Mu.Log.fuo r.Mu.Replica.log - 1 do
            match slot_value r i with
            | Some v -> check ("decided value was proposed: " ^ v) true (List.mem v proposed)
            | None -> ()
          done)
        (Mu.Smr.replicas smr);
      ignore e)

let no_holes_lemma () =
  with_cluster (fun e smr ->
      let r0 = Util.leader_of smr e in
      for i = 0 to 9 do
        ignore (propose_ok r0 (Printf.sprintf "h%d" i))
      done;
      Sim.Host.pause r0.Mu.Replica.host;
      let r1 = Mu.Smr.replica smr 1 in
      Util.wait_for (fun () -> Mu.Replica.is_leader r1) e;
      ignore (propose_ok r1 "after");
      Sim.Host.resume r0.Mu.Replica.host;
      (* Lemma A.11: if slot i is populated, so is every slot below it. *)
      Array.iter
        (fun (r : Mu.Replica.t) ->
          let top = ref (-1) in
          for i = 0 to 15 do
            if slot_value r i <> None then top := i
          done;
          for i = 0 to !top do
            check
              (Printf.sprintf "no hole at %d (replica %d)" i r.Mu.Replica.id)
              true
              (slot_value r i <> None)
          done)
        (Mu.Smr.replicas smr))

let minority_follower_crash_tolerated () =
  with_cluster (fun e smr ->
      let leader = Util.leader_of smr e in
      ignore (propose_ok leader "before");
      let r2 = Mu.Smr.replica smr 2 in
      Sim.Host.kill_host r2.Mu.Replica.host;
      (* The first propose may abort when the write to the dead follower
         times out; retries must then succeed with the remaining
         majority. *)
      let rec retry n =
        if n = 0 then Alcotest.fail "never recovered with a majority"
        else
          match propose leader (Printf.sprintf "retry%d" n) with
          | Ok _ -> ()
          | Error _ -> retry (n - 1)
      in
      retry 5;
      check "leader still leads" true (Mu.Replica.is_leader leader);
      check_agreement smr)

let majority_loss_blocks_commit () =
  with_cluster (fun e smr ->
      let leader = Util.leader_of smr e in
      ignore (propose_ok leader "before");
      Sim.Host.kill_host (Mu.Smr.replica smr 1).Mu.Replica.host;
      Sim.Host.kill_host (Mu.Smr.replica smr 2).Mu.Replica.host;
      (* Without a majority nothing can commit: every propose aborts. *)
      let any_committed = ref false in
      for i = 0 to 2 do
        match propose leader (Printf.sprintf "m%d" i) with
        | Ok _ -> any_committed := true
        | Error _ -> ()
      done;
      check "no commit without a majority" false !any_committed;
      ignore e)

let log_backpressure_waits_for_recycling () =
  let cfg =
    { Mu.Config.default with Mu.Config.log_slots = 192; recycle_slack = 64;
      recycle_interval = 300_000 }
  in
  with_cluster ~cfg (fun e smr ->
      let leader = Util.leader_of smr e in
      (* Proposing far more entries than the log holds only works if
         recycling keeps freeing slots. *)
      for i = 0 to 599 do
        ignore (propose_ok leader (Printf.sprintf "r%d" i))
      done;
      check_int "all committed" 600 (Mu.Log.fuo leader.Mu.Replica.log);
      check "recycling advanced" true (leader.Mu.Replica.zeroed_up_to > 0);
      ignore e)

(* r1 is paused while r0 establishes, so r0's confirmed set is just {2}.
   The 100 us grace after the majority ack applies only while r1 is alive
   in r0's failure-detector view: a live straggler gets it, a suspected
   one (a replaced leader, at a fail-over) does not. Either way, when r1
   comes back, its permission manager acks the still-pending request and
   the next propose admits it (§4.2 "Growing confirmed followers"),
   bringing it up to date. *)
let grow_confirmed_followers ~suspected () =
  with_cluster (fun e smr ->
      let r0 = Mu.Smr.replica smr 0 and r1 = Mu.Smr.replica smr 1 in
      Sim.Host.pause r1.Mu.Replica.host;
      Util.wait_for (fun () -> Mu.Replica.is_leader r0) e;
      if suspected then Util.wait_for (fun () -> not (Mu.Election.is_alive r0 1)) e;
      check "r1 suspected" suspected (not (Mu.Election.is_alive r0 1));
      (* Watch the establish: when r0 first holds a majority of acks for
         its new request, and when it has settled its followers. *)
      let gen0 = r0.Mu.Replica.req_gen in
      let majority_at = ref (-1) and established_at = ref (-1) in
      Sim.Engine.spawn e ~name:"watch-establish" (fun () ->
          while !established_at < 0 do
            let gen = r0.Mu.Replica.req_gen in
            if gen > gen0 then begin
              let now = Sim.Engine.now e in
              let acks = List.length (Mu.Permissions.acked r0 ~gen) in
              if !majority_at < 0 && acks >= Mu.Replica.majority r0 then majority_at := now;
              if not r0.Mu.Replica.need_new_followers then established_at := now
            end;
            Sim.Engine.sleep e 1_000
          done);
      ignore (propose_ok r0 "a");
      ignore (propose_ok r0 "b");
      Alcotest.(check (list int)) "minority set" [ 2 ] r0.Mu.Replica.confirmed;
      let settle = !established_at - !majority_at in
      check
        (Printf.sprintf "grace taken: %d ns after the majority ack" settle)
        (not suspected) (settle >= 100_000);
      Sim.Host.resume r1.Mu.Replica.host;
      (* Give r1's permission manager time to process the pending request. *)
      Sim.Engine.sleep e 2_000_000;
      ignore (propose_ok r0 "c");
      Alcotest.(check (list int)) "straggler admitted" [ 1; 2 ] r0.Mu.Replica.confirmed;
      (* And it was brought up to date (Listing 6 applied to the grown set). *)
      check "r1 caught up" true (Mu.Log.fuo r1.Mu.Replica.log >= 2);
      Alcotest.(check (option string)) "r1 has old entries" (Some "a") (slot_value r1 0);
      ignore (propose_ok r0 "d");
      Alcotest.(check (option string)) "r1 receives new entries" (Some "d") (slot_value r1 3);
      check_agreement smr)

let five_replica_cluster () =
  let cfg = { Mu.Config.default with Mu.Config.n = 5 } in
  with_cluster ~cfg (fun e smr ->
      let r0 = Util.leader_of smr e in
      for i = 0 to 4 do
        ignore (propose_ok r0 (Printf.sprintf "n5-%d" i))
      done;
      (* Two failures are a tolerable minority with n = 5. *)
      Sim.Host.kill_host (Mu.Smr.replica smr 3).Mu.Replica.host;
      Sim.Host.kill_host (Mu.Smr.replica smr 4).Mu.Replica.host;
      let rec retry n =
        if n = 0 then Alcotest.fail "no progress with 3 of 5 alive"
        else
          match propose r0 "after-two-failures" with Ok _ -> () | Error _ -> retry (n - 1)
      in
      retry 6;
      check_agreement smr;
      (* A third failure kills the majority: no more commits. *)
      Sim.Host.kill_host (Mu.Smr.replica smr 2).Mu.Replica.host;
      let any = ref false in
      for _ = 0 to 2 do
        match propose r0 "no-majority" with Ok _ -> any := true | Error _ -> ()
      done;
      check "no commit with 2 of 5" false !any)

let partition_heals () =
  with_cluster (fun e smr ->
      let r0 = Util.leader_of smr e in
      ignore (propose_ok r0 "pre");
      (* Cut r0 off from both peers on the replication plane: its writes
         time out and it aborts; reconnection (permission re-acquisition)
         heals it. *)
      List.iter
        (fun (p : Mu.Replica.peer) -> Rdma.Qp.set_link_up p.Mu.Replica.repl_qp false)
        r0.Mu.Replica.peers;
      (match propose r0 "partitioned" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "committed across a dead link");
      List.iter
        (fun (p : Mu.Replica.peer) -> Rdma.Qp.set_link_up p.Mu.Replica.repl_qp true)
        r0.Mu.Replica.peers;
      let rec retry n =
        if n = 0 then Alcotest.fail "did not heal"
        else match propose r0 "healed" with Ok _ -> () | Error _ -> retry (n - 1)
      in
      retry 5;
      check_agreement smr)

(* --- recycler under revocation (§5.3 fault handling) ------------------------- *)

(* Establish replica 0 as a leader with [entries] committed and every
   replica's published log head at [entries]. *)
let established_leader rs entries =
  let leader = rs.(0) in
  Mu.Replica.set_role leader Mu.Replica.Leader;
  leader.Mu.Replica.need_new_followers <- false;
  leader.Mu.Replica.confirmed <-
    Array.to_list rs |> List.filter_map (fun (r : Mu.Replica.t) ->
        if r.Mu.Replica.id = 0 then None else Some r.Mu.Replica.id);
  Array.iter
    (fun (r : Mu.Replica.t) ->
      for i = 0 to entries - 1 do
        Test_replayer.fill_slot r i (string_of_int i)
      done;
      Mu.Log.set_fuo r.Mu.Replica.log entries;
      r.Mu.Replica.applied <- entries;
      Rdma.Mr.set_i64 r.Mu.Replica.bg_mr ~off:Mu.Replica.bg_log_head_offset
        (Int64.of_int entries))
    rs;
  leader

let run_recycle e (leader : Mu.Replica.t) =
  let done_ = ref false in
  Sim.Host.spawn leader.Mu.Replica.host ~name:"recycle" (fun () ->
      Mu.Recycler.recycle_once leader;
      done_ := true);
  Sim.Engine.run ~until:(Sim.Engine.now e + 100_000_000) e;
  check "recycle round finished" true !done_

(* Regression: a failed log-head read on a *confirmed* follower (here its
   misc-plane permissions were revoked) means the leader's view may be
   stale; the round must be skipped — watermark untouched, failure counted
   — not crash the leader or zero entries the follower still needs. *)
let recycler_skips_on_revoked_head_read () =
  let e, rs = Test_replayer.bare_cluster () in
  let leader = established_leader rs 6 in
  let f1 = rs.(1) in
  Rdma.Qp.set_access (Mu.Replica.peer f1 0).Mu.Replica.misc_qp Rdma.Verbs.access_none;
  run_recycle e leader;
  check_int "round skipped, watermark held" 0 leader.Mu.Replica.zeroed_up_to;
  check_int "skip counted" 1 leader.Mu.Replica.metrics.Mu.Metrics.recycle_skips;
  check "read failure counted" true
    (leader.Mu.Replica.metrics.Mu.Metrics.recycler_errors >= 1);
  check "nothing zeroed at the revoked follower" true
    (Mu.Log.read_slot f1.Mu.Replica.log 0 <> None);
  (* Permission restored and the NAK-broken QP pair reconnected from the
     leader's side (one cycle brings both ends back): the next round
     recycles the full prefix. *)
  Rdma.Qp.set_access (Mu.Replica.peer f1 0).Mu.Replica.misc_qp Rdma.Verbs.access_rw;
  let misc = (Mu.Replica.peer leader 1).Mu.Replica.misc_qp in
  check "NAK broke the pair" true (Rdma.Qp.state misc = Rdma.Verbs.Err);
  Sim.Host.spawn leader.Mu.Replica.host ~name:"reconnect" (fun () -> Rdma.Qp.reconnect misc);
  Sim.Engine.run ~until:(Sim.Engine.now e + 5_000_000) e;
  check "pair back in RTS" true
    (Rdma.Qp.state misc = Rdma.Verbs.Rts
    && Rdma.Qp.state (Mu.Replica.peer f1 0).Mu.Replica.misc_qp = Rdma.Verbs.Rts);
  run_recycle e leader;
  check_int "recovered round advances" 6 leader.Mu.Replica.zeroed_up_to

(* Regression: a leader that lost the write permission mid-demotion must
   not post zeroing writes (they would only manufacture error completions
   for the propose path); the watermark stays put until it is leader with
   permission again. *)
let recycler_demote_safety_holds_watermark () =
  let e, rs = Test_replayer.bare_cluster () in
  let leader = established_leader rs 6 in
  leader.Mu.Replica.perm_holder <- Some 1;
  run_recycle e leader;
  check_int "watermark held while deposed" 0 leader.Mu.Replica.zeroed_up_to;
  check_int "cut-short round counted as skip" 1
    leader.Mu.Replica.metrics.Mu.Metrics.recycle_skips;
  check_int "no zeroing writes in flight" 0 leader.Mu.Replica.recycler_outstanding;
  check "followers' copies intact" true (Mu.Log.read_slot rs.(1).Mu.Replica.log 0 <> None);
  (* Back in charge: recycling resumes from the old watermark. *)
  leader.Mu.Replica.perm_holder <- Some 0;
  run_recycle e leader;
  check_int "resumes after regaining permission" 6 leader.Mu.Replica.zeroed_up_to;
  check "zeroing writes posted" true (leader.Mu.Replica.recycler_outstanding > 0)

(* The [inflight] tags Mu's planes share one CQ under: windowed accept
   groups ([group_tag]), propose and catch-up rounds ([fresh_tag]) and
   the reserved background tags (-1..-3) never collide, so a straggler of
   one is never counted as another's ack. A completion whose wr_id is not
   in flight is dropped as stale; a tracked one comes back with its tag. *)
let completion_tags_never_clash () =
  with_cluster (fun e smr ->
      ignore (Util.leader_of smr e);
      let r1 = Mu.Smr.replica smr 1 in
      let reserved = [ -1; Mu.Replica.recycler_tag; Mu.Replica.config_tag ] in
      check "reserved tags are -1..-3" true (List.sort compare reserved = [ -3; -2; -1 ]);
      let fresh = List.init 1_000 (fun _ -> Mu.Replica.fresh_tag r1) in
      check "round tags are positive" true (List.for_all (fun tg -> tg > 0) fresh);
      for slot = 0 to 100_000 do
        let g = Mu.Replica.group_tag slot in
        if g > 0 || List.mem g reserved || List.mem g fresh then
          Alcotest.failf "group_tag %d = %d clashes" slot g;
        if Mu.Replica.group_tag (slot + 1) >= g then
          Alcotest.failf "group_tag not injective at slot %d" slot
      done;
      let p2 = Mu.Replica.peer r1 2 in
      let read wr_id =
        Rdma.Qp.post_read p2.Mu.Replica.repl_qp ~wr_id ~dst:(Bytes.create 8) ~dst_off:0
          ~len:8 ~mr:p2.Mu.Replica.remote_log_mr ~src_off:0
      in
      let tag = Mu.Replica.group_tag 5 in
      let stale, tracked =
        on_replica r1 (fun () ->
            read (Mu.Replica.fresh_wr_id r1);
            let stale = Mu.Replication.drain_completion r1 in
            let wr = Mu.Replica.fresh_wr_id r1 in
            Mu.Replica.Itbl.replace r1.Mu.Replica.inflight wr (2, tag);
            read wr;
            (stale, Mu.Replication.drain_completion r1))
      in
      check "untracked completion is stale" true (stale = None);
      check "tracked completion carries its tag" true (tracked = Some (2, tag));
      check_int "nothing left in flight" 0 (Mu.Replica.Itbl.length r1.Mu.Replica.inflight))

let suite =
  [
    ("basic propose commits", `Quick, basic_propose_commits);
    ("proposes are ordered", `Quick, proposes_are_ordered);
    ("replication latency ~1.3us", `Quick, propose_replication_latency);
    ("omit-prepare engages", `Quick, omit_prepare_engages);
    ("omit-prepare disabled by config", `Quick, omit_prepare_disabled_by_config);
    ("followers replicate silently", `Quick, followers_replicate_silently);
    ("commit piggybacking", `Quick, commit_piggybacking);
    ("new leader catches up", `Quick, new_leader_catches_up);
    ("update followers on leader change", `Quick, update_followers_on_leader_change);
    ("deposed leader aborts", `Quick, deposed_leader_aborts);
    ("deposed leader recovers by reacquiring", `Quick, deposed_leader_recovers_by_reacquiring);
    ("competing leaders never disagree", `Quick, competing_leaders_never_disagree);
    ("validity: only proposed values decided", `Quick, validity_only_proposed_values);
    ("no holes (Lemma A.11)", `Quick, no_holes_lemma);
    ("minority follower crash tolerated", `Quick, minority_follower_crash_tolerated);
    ("majority loss blocks commit", `Quick, majority_loss_blocks_commit);
    ("log backpressure waits for recycling", `Quick, log_backpressure_waits_for_recycling);
    ("grow confirmed followers", `Quick, grow_confirmed_followers ~suspected:false);
    ("grow confirmed followers past a suspected straggler", `Quick,
      grow_confirmed_followers ~suspected:true);
    ("five replica cluster", `Quick, five_replica_cluster);
    ("partition heals", `Quick, partition_heals);
    ("recycler skips on revoked head read", `Quick, recycler_skips_on_revoked_head_read);
    ("recycler demote-safety holds watermark", `Quick, recycler_demote_safety_holds_watermark);
    ("completion tags never clash", `Quick, completion_tags_never_clash);
  ]

(* Focused tests for the replayer (Listing 7 / §4.2) and the recycler
   (§5.3), exercised directly on replica state rather than through the
   full SMR loop. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A wired cluster with NO fibers running: tests drive state by hand.
   Replica 0 is pre-granted write access everywhere (as an established
   leader would be). *)
let bare_cluster ?(cfg = Mu.Config.default) ?reg () =
  let e = Util.engine () in
  Option.iter (Sim.Engine.set_metrics e) reg;
  let replicas = Mu.Replica.create_cluster e Util.default_cal cfg in
  Array.iter
    (fun (r : Mu.Replica.t) ->
      if r.Mu.Replica.id <> 0 then
        Rdma.Qp.set_access (Mu.Replica.peer r 0).Mu.Replica.repl_qp Rdma.Verbs.access_rw;
      (* Every replica (including 0 itself) regards 0 as the permission
         holder, as after a completed permission round — the recycler
         checks this before posting zeroing writes. *)
      r.Mu.Replica.perm_holder <- Some 0)
    replicas;
  (e, replicas)

let fill_slot (r : Mu.Replica.t) idx s =
  Mu.Log.write_slot_local r.Mu.Replica.log idx ~proposal:8L ~value:(Bytes.of_string s)

(* --- replayer ------------------------------------------------------------- *)

let self_advance_needs_successor () =
  let _e, rs = bare_cluster () in
  let r = rs.(1) in
  fill_slot r 0 "a";
  (* Listing 7: entry 0 is only known committed once entry 1 exists. *)
  check "no successor, no advance" false (Mu.Replayer.self_advance_fuo r);
  check_int "fuo still 0" 0 (Mu.Log.fuo r.Mu.Replica.log);
  fill_slot r 1 "b";
  check "advances with successor" true (Mu.Replayer.self_advance_fuo r);
  check_int "fuo = 1 (entry 1 still pending)" 1 (Mu.Log.fuo r.Mu.Replica.log)

let self_advance_runs_over_prefix () =
  let _e, rs = bare_cluster () in
  let r = rs.(1) in
  for i = 0 to 5 do
    fill_slot r i (string_of_int i)
  done;
  ignore (Mu.Replayer.self_advance_fuo r);
  check_int "fuo reaches the last-but-one entry" 5 (Mu.Log.fuo r.Mu.Replica.log)

let self_advance_stops_at_hole () =
  let _e, rs = bare_cluster () in
  let r = rs.(1) in
  fill_slot r 0 "a";
  fill_slot r 1 "b";
  fill_slot r 3 "d";
  (* hole at 2 *)
  ignore (Mu.Replayer.self_advance_fuo r);
  check_int "stops before the hole" 1 (Mu.Log.fuo r.Mu.Replica.log)

let replayer_fiber_applies_and_publishes_head () =
  let e, rs = bare_cluster () in
  let r = rs.(2) in
  let applied = ref [] in
  r.Mu.Replica.on_commit <- (fun idx v -> applied := (idx, Bytes.to_string v) :: !applied);
  Mu.Replayer.start r;
  Sim.Engine.spawn e ~name:"writer" (fun () ->
      for i = 0 to 3 do
        fill_slot r i (string_of_int i);
        Sim.Engine.sleep e 100_000
      done);
  Sim.Engine.run ~until:3_000_000 e;
  Alcotest.(check (list (pair int string)))
    "applied prefix in order"
    [ (0, "0"); (1, "1"); (2, "2") ]
    (List.rev !applied);
  check_int "log head published" 3
    (Int64.to_int (Rdma.Mr.get_i64 r.Mu.Replica.bg_mr ~off:Mu.Replica.bg_log_head_offset))

let replayer_respects_remote_fuo () =
  (* A leader bumping the follower's FUO releases entries even without a
     successor (the update-followers path). *)
  let e, rs = bare_cluster () in
  let r = rs.(1) in
  let applied = ref 0 in
  r.Mu.Replica.on_commit <- (fun _ _ -> incr applied);
  Mu.Replayer.start r;
  Sim.Engine.spawn e ~name:"leaderish" (fun () ->
      fill_slot r 0 "a";
      fill_slot r 1 "b";
      Mu.Log.set_fuo r.Mu.Replica.log 2);
  Sim.Engine.run ~until:2_000_000 e;
  check_int "both applied via explicit FUO" 2 !applied

let leader_does_not_self_advance () =
  let _e, rs = bare_cluster () in
  let r = rs.(0) in
  Mu.Replica.set_role r Mu.Replica.Leader;
  fill_slot r 0 "a";
  fill_slot r 1 "b";
  (* The fiber guards on the follower role; the helper itself is exposed
     for tests, so emulate the guard here. *)
  check "fiber guard"
    true
    (r.Mu.Replica.role = Mu.Replica.Leader);
  check_int "leader fuo managed by propose only" 0 (Mu.Log.fuo r.Mu.Replica.log)

(* A small ring: 128 slots, of which a leader may run 112 ahead. *)
let small_ring = { Mu.Config.default with Mu.Config.log_slots = 128; recycle_slack = 16 }

let self_advance_bounded_by_ring () =
  let _e, rs = bare_cluster ~cfg:small_ring () in
  let r = rs.(1) in
  (* 113 filled slots: 112 advances, the most a follower can be owed. *)
  for i = 0 to 112 do
    fill_slot r i "x"
  done;
  check "advances" true (Mu.Replayer.self_advance_fuo r);
  check_int "fuo after the longest legal run" 112 (Mu.Log.fuo r.Mu.Replica.log);
  (* One slot more is a run no leader can have written. *)
  let _e, rs = bare_cluster ~cfg:small_ring () in
  let r = rs.(1) in
  for i = 0 to 113 do
    fill_slot r i "x"
  done;
  check "one past the bound raises" true
    (try
       ignore (Mu.Replayer.self_advance_fuo r);
       false
     with Mu.Replayer.Ring_full { fuo; _ } -> fuo = 112)

(* Every slot filled and never recycled: the walk used to go round the
   ring forever. It must stop with [Ring_full], from a direct call and
   out of a running replayer fiber, in bounded wall time. *)
let full_ring_raises () =
  let wall0 = Sys.time () in
  let _e, rs = bare_cluster ~cfg:small_ring () in
  let r = rs.(1) in
  for i = 0 to 127 do
    fill_slot r i "x"
  done;
  check "direct call raises" true
    (try
       ignore (Mu.Replayer.self_advance_fuo r);
       false
     with Mu.Replayer.Ring_full { replica; _ } -> replica = 1);
  let e, rs = bare_cluster ~cfg:small_ring () in
  let r = rs.(2) in
  for i = 0 to 127 do
    fill_slot r i "x"
  done;
  Mu.Replayer.start r;
  check "replayer fiber crashes with Ring_full" true
    (try
       Sim.Engine.run ~until:1_000_000 e;
       false
     with Sim.Engine.Fiber_crash (_, Mu.Replayer.Ring_full { replica; _ }) -> replica = 2);
  check "bounded cpu time" true (Sys.time () -. wall0 < 10.0)

(* --- recycler --------------------------------------------------------------- *)

let recycle_zeroes_below_min_head () =
  let e, rs = bare_cluster () in
  let leader = rs.(0) and f1 = rs.(1) and f2 = rs.(2) in
  (* Simulate an established leader with 6 committed entries. *)
  Mu.Replica.set_role leader Mu.Replica.Leader;
  leader.Mu.Replica.need_new_followers <- false;
  leader.Mu.Replica.confirmed <- [ 1; 2 ];
  Array.iter
    (fun (r : Mu.Replica.t) ->
      for i = 0 to 5 do
        fill_slot r i (string_of_int i)
      done;
      Mu.Log.set_fuo r.Mu.Replica.log 6)
    rs;
  leader.Mu.Replica.applied <- 6;
  (* Followers have applied different prefixes. *)
  f1.Mu.Replica.applied <- 4;
  Rdma.Mr.set_i64 f1.Mu.Replica.bg_mr ~off:Mu.Replica.bg_log_head_offset 4L;
  f2.Mu.Replica.applied <- 2;
  Rdma.Mr.set_i64 f2.Mu.Replica.bg_mr ~off:Mu.Replica.bg_log_head_offset 2L;
  let done_ = ref false in
  Sim.Host.spawn leader.Mu.Replica.host ~name:"recycle" (fun () ->
      Mu.Recycler.recycle_once leader;
      done_ := true);
  Sim.Engine.run ~until:50_000_000 e;
  check "ran" true !done_;
  check_int "minHead = slowest follower" 2 leader.Mu.Replica.zeroed_up_to;
  (* Slots 0 and 1 zeroed everywhere the leader reaches, slot 2 intact. *)
  check "slot 0 zeroed at leader" true (Mu.Log.read_slot leader.Mu.Replica.log 0 = None);
  check "slot 1 zeroed at f1" true (Mu.Log.read_slot f1.Mu.Replica.log 1 = None);
  check "slot 2 intact" true (Mu.Log.read_slot f2.Mu.Replica.log 2 <> None)

let recycle_counts_all_peers_not_just_confirmed () =
  (* The regression behind the kv_failover crash: a peer outside the
     confirmed set still holds the log back. *)
  let e, rs = bare_cluster () in
  let leader = rs.(0) and f1 = rs.(1) and f2 = rs.(2) in
  Mu.Replica.set_role leader Mu.Replica.Leader;
  leader.Mu.Replica.need_new_followers <- false;
  leader.Mu.Replica.confirmed <- [ 1 ];
  (* f2 NOT confirmed *)
  Array.iter
    (fun (r : Mu.Replica.t) ->
      for i = 0 to 5 do
        fill_slot r i (string_of_int i)
      done;
      Mu.Log.set_fuo r.Mu.Replica.log 6)
    rs;
  leader.Mu.Replica.applied <- 6;
  f1.Mu.Replica.applied <- 6;
  Rdma.Mr.set_i64 f1.Mu.Replica.bg_mr ~off:Mu.Replica.bg_log_head_offset 6L;
  f2.Mu.Replica.applied <- 1;
  Rdma.Mr.set_i64 f2.Mu.Replica.bg_mr ~off:Mu.Replica.bg_log_head_offset 1L;
  Sim.Host.spawn leader.Mu.Replica.host ~name:"recycle" (fun () ->
      Mu.Recycler.recycle_once leader);
  Sim.Engine.run ~until:50_000_000 e;
  check_int "held back by the unconfirmed peer" 1 leader.Mu.Replica.zeroed_up_to;
  check "f2's unapplied entries survive" true (Mu.Log.read_slot f2.Mu.Replica.log 1 <> None)

let recycle_skips_dead_hosts () =
  let e, rs = bare_cluster () in
  let leader = rs.(0) and f1 = rs.(1) and f2 = rs.(2) in
  Mu.Replica.set_role leader Mu.Replica.Leader;
  leader.Mu.Replica.need_new_followers <- false;
  leader.Mu.Replica.confirmed <- [ 1 ];
  Array.iter
    (fun (r : Mu.Replica.t) ->
      for i = 0 to 3 do
        fill_slot r i (string_of_int i)
      done;
      Mu.Log.set_fuo r.Mu.Replica.log 4)
    rs;
  leader.Mu.Replica.applied <- 4;
  f1.Mu.Replica.applied <- 3;
  Rdma.Mr.set_i64 f1.Mu.Replica.bg_mr ~off:Mu.Replica.bg_log_head_offset 3L;
  (* A dead host never recovers under crash-stop; it must not pin the log
     forever. *)
  Sim.Host.kill_host f2.Mu.Replica.host;
  Sim.Host.spawn leader.Mu.Replica.host ~name:"recycle" (fun () ->
      Mu.Recycler.recycle_once leader);
  Sim.Engine.run ~until:100_000_000 e;
  check_int "dead host skipped" 3 leader.Mu.Replica.zeroed_up_to;
  ignore e

let recycled_slots_are_reusable () =
  let e, rs =
    bare_cluster ~cfg:{ Mu.Config.default with Mu.Config.log_slots = 8; recycle_slack = 2 } ()
  in
  let leader = rs.(0) in
  Mu.Replica.set_role leader Mu.Replica.Leader;
  leader.Mu.Replica.need_new_followers <- false;
  leader.Mu.Replica.confirmed <- [ 1; 2 ];
  Array.iter
    (fun (r : Mu.Replica.t) ->
      for i = 0 to 5 do
        fill_slot r i (string_of_int i)
      done;
      Mu.Log.set_fuo r.Mu.Replica.log 6;
      r.Mu.Replica.applied <- 6;
      Rdma.Mr.set_i64 r.Mu.Replica.bg_mr ~off:Mu.Replica.bg_log_head_offset 6L)
    rs;
  Sim.Host.spawn leader.Mu.Replica.host ~name:"recycle" (fun () ->
      Mu.Recycler.recycle_once leader);
  Sim.Engine.run ~until:50_000_000 e;
  check_int "all applied slots recycled" 6 leader.Mu.Replica.zeroed_up_to;
  (* Index 8 shares a physical slot with index 0; after zeroing it is
     cleanly writable and readable. *)
  fill_slot leader 8 "wrapped";
  match Mu.Log.read_slot leader.Mu.Replica.log 8 with
  | Some s -> Alcotest.(check string) "wrapped entry" "wrapped" (Bytes.to_string s.Mu.Log.value)
  | None -> Alcotest.fail "wrapped slot unreadable"

let suite =
  [
    ("self-advance needs successor", `Quick, self_advance_needs_successor);
    ("self-advance runs over prefix", `Quick, self_advance_runs_over_prefix);
    ("self-advance stops at hole", `Quick, self_advance_stops_at_hole);
    ("replayer applies and publishes head", `Quick, replayer_fiber_applies_and_publishes_head);
    ("replayer respects remote FUO", `Quick, replayer_respects_remote_fuo);
    ("leader does not self-advance", `Quick, leader_does_not_self_advance);
    ("self-advance bounded by ring", `Quick, self_advance_bounded_by_ring);
    ("full ring raises", `Quick, full_ring_raises);
    ("recycle zeroes below minHead", `Quick, recycle_zeroes_below_min_head);
    ("recycle counts all peers", `Quick, recycle_counts_all_peers_not_just_confirmed);
    ("recycle skips dead hosts", `Quick, recycle_skips_dead_hosts);
    ("recycled slots reusable", `Quick, recycled_slots_are_reusable);
  ]

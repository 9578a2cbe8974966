(* Tests for crash recovery: simulated NVM (lib/sim/nvm), the durable
   state layout and catch-up driver (lib/recovery), and the end-to-end
   kill → restart → rejoin pipeline in Mu.Smr — including graceful
   degradation of a quorum-lost leader and determinism of recovery
   runs. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- simulated NVM ------------------------------------------------------- *)

let nvm_regions_persist () =
  let nvm = Sim.Nvm.create () in
  check "fresh region unknown" false (Sim.Nvm.mem nvm ~owner:0 ~name:"log");
  let r = Sim.Nvm.region nvm ~owner:0 ~name:"log" ~size:64 in
  Sim.Mem.set_char r 0 'x';
  check "region now known" true (Sim.Nvm.mem nvm ~owner:0 ~name:"log");
  (* Re-opening returns the same memory, not a copy. *)
  let r' = Sim.Nvm.region nvm ~owner:0 ~name:"log" ~size:64 in
  check "same bytes on reopen" true (r == r');
  check "write visible" true (Sim.Mem.get_char r' 0 = 'x');
  (* Same name under a different owner is a distinct region. *)
  let other = Sim.Nvm.region nvm ~owner:1 ~name:"log" ~size:64 in
  check "per-owner isolation" true (Sim.Mem.get_char other 0 = '\000');
  (* Size mismatch is a programming error. *)
  (match Sim.Nvm.region nvm ~owner:0 ~name:"log" ~size:128 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "size mismatch accepted");
  Sim.Nvm.erase nvm ~owner:0 ~name:"log";
  check "erase forgets" false (Sim.Nvm.mem nvm ~owner:0 ~name:"log")

let durable_members_roundtrip () =
  let nvm = Sim.Nvm.create () in
  check "no durable state yet" false (Recovery.Durable.has_durable_state nvm ~owner:3);
  let meta = Recovery.Durable.meta_backing nvm ~owner:3 in
  check "blank meta decodes to None" true (Recovery.Durable.read_members meta = None);
  Recovery.Durable.write_members meta [ 2; 0; 1; 1 ];
  check "members round-trip sorted+deduped" true
    (Recovery.Durable.read_members meta = Some [ 0; 1; 2 ]);
  Recovery.Durable.write_members meta [ 0; 2 ];
  check "overwrite shrinks" true (Recovery.Durable.read_members meta = Some [ 0; 2 ]);
  (* The log region is what [has_durable_state] keys on. *)
  ignore (Recovery.Durable.log_backing nvm ~owner:3 ~size:256);
  check "durable state after log creation" true
    (Recovery.Durable.has_durable_state nvm ~owner:3)

(* --- catch-up driver (pure closures) ------------------------------------- *)

let catchup_reaches_parity () =
  let fuo = ref 0 in
  let installed = Array.make 10 false in
  let idles = ref 0 in
  match
    Recovery.Catchup.run ~batch:4 ~idle_ns:10
      ~idle:(fun _ -> incr idles)
      ~target:(fun () -> Some 10)
      ~fuo:(fun () -> !fuo)
      ~pull:(fun i -> Recovery.Catchup.Entry (Bytes.make 1 (Char.chr i)))
      ~install:(fun i _ -> installed.(i) <- true)
      ~commit:(fun i -> fuo := i)
      ~recheckpoint:(fun () -> ())
      ~stopped:(fun () -> false)
      ()
  with
  | Recovery.Catchup.Parity p ->
    check_int "all entries pulled" 10 p.Recovery.Catchup.entries;
    check "all installed" true (Array.for_all Fun.id installed);
    check_int "local fuo at parity" 10 !fuo;
    check_int "ceil(10/4) rounds" 3 p.Recovery.Catchup.rounds;
    (* The rate bound: one idle per full batch (4 + 4), none after the
       short final round that closed the backlog. *)
    check_int "idled after full batches only" 2 !idles
  | Recovery.Catchup.Stopped _ -> Alcotest.fail "catch-up stopped unexpectedly"

(* A leader that keeps committing while the reader catches up: one new
   entry per 5 time units, against 1 unit per read and 20 per idle. A
   reader that idled after every round would hand the leader 4 more
   entries each time and never reach parity; one that goes straight back
   once under a batch closes the gap. *)
let catchup_converges_on_advancing_target () =
  let clock = ref 0 in
  let tick n = clock := !clock + n in
  let fuo = ref 0 in
  match
    Recovery.Catchup.run ~batch:64 ~idle_ns:20 ~idle:tick
      ~target:(fun () ->
        tick 1;
        Some (100 + (!clock / 5)))
      ~fuo:(fun () -> !fuo)
      ~pull:(fun _ ->
        tick 1;
        Recovery.Catchup.Entry (Bytes.create 1))
      ~install:(fun _ _ -> ())
      ~commit:(fun i -> fuo := i)
      ~recheckpoint:(fun () -> ())
      ~stopped:(fun () -> !clock > 1_000_000)
      ()
  with
  | Recovery.Catchup.Parity p ->
    check "local fuo reached the moving target" true (!fuo >= 100 + (!clock / 5) - 1);
    check "pulled past the initial backlog" true (p.Recovery.Catchup.entries > 100)
  | Recovery.Catchup.Stopped _ -> Alcotest.fail "catch-up never reached parity"

let catchup_recheckpoints_after_recycle () =
  let fuo = ref 0 in
  let recheckpoints = ref 0 in
  match
    Recovery.Catchup.run ~batch:4 ~idle_ns:10
      ~idle:(fun _ -> ())
      ~target:(fun () -> Some 10)
      ~fuo:(fun () -> !fuo)
      ~pull:(fun i ->
        if i < 6 then Recovery.Catchup.Recycled
        else Recovery.Catchup.Entry (Bytes.create 1))
      ~install:(fun _ _ -> ())
      ~commit:(fun i -> fuo := max !fuo i)
        (* A recheckpoint jumps state forward past the recycled prefix,
           as the real pipeline does with a fresh snapshot. *)
      ~recheckpoint:(fun () ->
        incr recheckpoints;
        fuo := 6)
      ~stopped:(fun () -> false)
      ()
  with
  | Recovery.Catchup.Parity p ->
    check_int "one recheckpoint" 1 !recheckpoints;
    check_int "driver counted it" 1 p.Recovery.Catchup.recheckpoints;
    check_int "only the live suffix pulled" 4 p.Recovery.Catchup.entries
  | Recovery.Catchup.Stopped _ -> Alcotest.fail "catch-up stopped unexpectedly"

(* A round that meets a recycled slot pulls nothing past it, so the
   recheckpoint is followed by the next round at once, not by an idle:
   neither when the checkpoint lands short of the round's end nor when it
   jumps a whole batch. The final round is under one batch, so this run
   never idles. *)
let catchup_recycled_round_does_not_idle () =
  List.iter
    (fun restored ->
      let fuo = ref 0 in
      let idles = ref 0 in
      match
        Recovery.Catchup.run ~batch:4 ~idle_ns:10
          ~idle:(fun _ -> incr idles)
          ~target:(fun () -> Some (restored + 2))
          ~fuo:(fun () -> !fuo)
          ~pull:(fun i ->
            if i < restored then Recovery.Catchup.Recycled
            else Recovery.Catchup.Entry (Bytes.create 1))
          ~install:(fun _ _ -> ())
          ~commit:(fun i -> fuo := max !fuo i)
          ~recheckpoint:(fun () -> fuo := restored)
          ~stopped:(fun () -> false)
          ()
      with
      | Recovery.Catchup.Parity p ->
        check_int "one recheckpoint" 1 p.Recovery.Catchup.recheckpoints;
        check_int (Printf.sprintf "no idle (checkpoint at %d)" restored) 0 !idles
      | Recovery.Catchup.Stopped _ -> Alcotest.fail "catch-up stopped unexpectedly")
    [ 2; 6 ]

let catchup_stops_and_waits () =
  (* [stopped] wins immediately. *)
  (match
     Recovery.Catchup.run ~batch:1 ~idle_ns:1
       ~idle:(fun _ -> ())
       ~target:(fun () -> Some 5)
       ~fuo:(fun () -> 0)
       ~pull:(fun _ -> Recovery.Catchup.Entry (Bytes.create 1))
       ~install:(fun _ _ -> ())
       ~commit:(fun _ -> ())
       ~recheckpoint:(fun () -> ())
       ~stopped:(fun () -> true)
       ()
   with
  | Recovery.Catchup.Stopped p -> check_int "nothing pulled" 0 p.Recovery.Catchup.entries
  | Recovery.Catchup.Parity _ -> Alcotest.fail "ran while stopped");
  (* Leaderless ([target () = None]) idles instead of spinning, until
     stopped. *)
  let idles = ref 0 in
  match
    Recovery.Catchup.run ~batch:1 ~idle_ns:1
      ~idle:(fun _ -> incr idles)
      ~target:(fun () -> None)
      ~fuo:(fun () -> 0)
      ~pull:(fun _ -> Recovery.Catchup.Unreachable)
      ~install:(fun _ _ -> ())
      ~commit:(fun _ -> ())
      ~recheckpoint:(fun () -> ())
      ~stopped:(fun () -> !idles >= 3)
      ()
  with
  | Recovery.Catchup.Stopped _ -> check "idled while leaderless" true (!idles >= 3)
  | Recovery.Catchup.Parity _ -> Alcotest.fail "no leader, no parity"

let backpressure_bounds_queue () =
  let bp = Recovery.Backpressure.create ~limit:2 in
  check "enabled" true (Recovery.Backpressure.enabled bp);
  check "below bound" true (Recovery.Backpressure.admit bp ~depth:0);
  check "below bound" true (Recovery.Backpressure.admit bp ~depth:1);
  check "at bound refused" false (Recovery.Backpressure.admit bp ~depth:2);
  check "past bound refused" false (Recovery.Backpressure.admit bp ~depth:7);
  check_int "refusals counted" 2 (Recovery.Backpressure.sheds bp);
  let off = Recovery.Backpressure.create ~limit:0 in
  check "limit 0 disables" true (Recovery.Backpressure.admit off ~depth:1_000_000);
  check_int "no sheds when disabled" 0 (Recovery.Backpressure.sheds off)

(* --- end-to-end: kill, restart, rejoin ----------------------------------- *)

let durable_cfg = { Mu.Config.default with Mu.Config.durable_state = true }

let with_smr ?(cfg = durable_cfg) ?(seed = 7L) ?reg f =
  let e = Sim.Engine.create ~seed () in
  Option.iter (Sim.Engine.set_metrics e) reg;
  let smr = Mu.Smr.create e Util.default_cal cfg ~make_app:(fun _ -> Apps.Kv_store.smr_app ()) in
  Mu.Smr.start smr;
  let result = ref None in
  Sim.Engine.spawn e ~name:"driver" (fun () ->
      result := Some (f e smr);
      Mu.Smr.stop smr;
      Sim.Engine.halt e);
  Sim.Engine.run ~until:120_000_000_000 e;
  match !result with Some r -> r | None -> Alcotest.fail "scenario did not finish"

let put smr k v i =
  ignore
    (Mu.Smr.submit smr
       (Apps.Kv_store.encode_command ~client:1 ~req_id:i
          (Apps.Kv_store.Put { key = k; value = v })))

let get smr k i =
  match
    Apps.Kv_store.decode_reply
      (Mu.Smr.submit smr
         (Apps.Kv_store.encode_command ~client:1 ~req_id:i (Apps.Kv_store.Get { key = k })))
  with
  | Some (Apps.Kv_store.Value v) -> Some v
  | _ -> None

(* Kill a follower under traffic, restart it, and require exact log
   parity: the rejoined incarnation's FUO catches the leader's, with the
   entries decided during the outage pulled from the leader's log. *)
let follower_kill_restart_reaches_parity () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      for i = 1 to 10 do
        put smr (Printf.sprintf "k%d" i) (Printf.sprintf "v%d" i) i
      done;
      let r2 = Mu.Smr.replica smr 2 in
      Sim.Host.kill_host r2.Mu.Replica.host;
      check "host dead" false (Sim.Host.process_alive r2.Mu.Replica.host);
      (* The cluster keeps committing on the surviving majority. *)
      for i = 11 to 30 do
        put smr (Printf.sprintf "k%d" i) (Printf.sprintf "v%d" i) i
      done;
      Mu.Smr.restart_replica smr ~id:2;
      Util.wait_for (fun () -> Mu.Smr.rejoins smr <> []) e;
      let r2' = Mu.Smr.replica smr 2 in
      check "fresh incarnation installed" true (r2' != r2);
      check "new host running" true (Sim.Host.process_alive r2'.Mu.Replica.host);
      let rj = List.hd (Mu.Smr.rejoins smr) in
      check_int "rejoin is for host 2" 2 rj.Mu.Smr.pid;
      check "entries pulled from the leader" true (rj.Mu.Smr.entries_pulled > 0);
      check "time to parity measured" true (rj.Mu.Smr.parity_at > rj.Mu.Smr.restarted_at);
      (* New writes confirm it back into the quorum. A follower's FUO
         trails the leader's last commit by one until the next accept
         proves it decided (commit piggybacking), so the convergence
         target is a FUO captured *after* a committed write, not the
         leader's moving FUO: the next write pushes the rejoined
         follower to (and past) it. *)
      put smr "after" "rejoin" 31;
      let l () = Option.get (Mu.Smr.serving_leader smr) in
      let target = Mu.Log.fuo (l ()).Mu.Replica.log in
      put smr "post" "x" 32;
      Util.wait_for (fun () -> List.mem 2 (l ()).Mu.Replica.confirmed) e;
      Util.wait_for (fun () -> Mu.Log.fuo r2'.Mu.Replica.log >= target) e;
      Util.wait_for (fun () -> r2'.Mu.Replica.applied >= target) e;
      check "no invariant violations" true
        (Mu.Invariants.check_all (Mu.Smr.replicas smr) = []))

(* Kill the leader: after fail-over the cluster commits under the next
   leader; the restarted lowest id catches up and — per §5.1's
   lowest-alive-id rule — takes leadership back. *)
let leader_kill_restart_fails_back () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      for i = 1 to 5 do
        put smr (Printf.sprintf "a%d" i) "x" i
      done;
      let r0 = Mu.Smr.replica smr 0 in
      Sim.Host.kill_host r0.Mu.Replica.host;
      (* These block across the fail-over and commit under leader 1. *)
      for i = 6 to 15 do
        put smr (Printf.sprintf "b%d" i) "y" i
      done;
      Mu.Smr.restart_replica smr ~id:0;
      Util.wait_for (fun () -> Mu.Smr.rejoins smr <> []) e;
      Util.wait_for
        (fun () ->
          match Mu.Smr.serving_leader smr with
          | Some l -> l.Mu.Replica.id = 0
          | None -> false)
        e;
      put smr "final" "v" 16;
      Alcotest.(check (option string)) "state served by failed-back leader" (Some "v")
        (get smr "final" 17);
      let r0' = Mu.Smr.replica smr 0 in
      check "restarted lowest id leads again" true (Mu.Replica.is_leader r0');
      check "no invariant violations" true
        (Mu.Invariants.check_all (Mu.Smr.replicas smr) = []))

(* Rewiring a restarted replica must not leave its previous
   incarnation's permission request behind on the survivors: granting it
   would revoke the serving leader and hand the survivors' logs to a
   replica that has not asked for them. *)
let rewire_leaves_no_pending_request () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      put smr "a" "1" 1;
      let r0 = Mu.Smr.replica smr 0 in
      Sim.Host.stop_process r0.Mu.Replica.host;
      Util.wait_for
        (fun () ->
          match Mu.Smr.serving_leader smr with
          | Some l -> l.Mu.Replica.id = 1 && not l.Mu.Replica.need_new_followers
          | None -> false)
        e;
      put smr "b" "2" 2;
      Mu.Smr.restart_replica smr ~id:0;
      (* The restart pipeline rewires without yielding; one yield lets it
         run and nothing else at this instant. *)
      Sim.Engine.yield e;
      check "fresh incarnation wired" true (Mu.Smr.replica smr 0 != r0);
      List.iter
        (fun id ->
          check
            (Printf.sprintf "no pending request on replica %d" id)
            true
            (Mu.Permissions.pending_request (Mu.Smr.replica smr id) = None))
        [ 1; 2 ])

(* Restarting a replica whose process was stopped (not killed) recovers
   the same way — stop-vs-kill differ in how state survives, not in
   whether rejoin works. *)
let stopped_process_restarts () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      for i = 1 to 8 do
        put smr (Printf.sprintf "s%d" i) "v" i
      done;
      let r1 = Mu.Smr.replica smr 1 in
      Sim.Host.stop_process r1.Mu.Replica.host;
      for i = 9 to 16 do
        put smr (Printf.sprintf "s%d" i) "v" i
      done;
      Mu.Smr.restart_replica smr ~id:1;
      Util.wait_for (fun () -> Mu.Smr.rejoins smr <> []) e;
      let r1' = Mu.Smr.replica smr 1 in
      put smr "post" "stop" 17;
      let l () = Option.get (Mu.Smr.serving_leader smr) in
      let target = Mu.Log.fuo (l ()).Mu.Replica.log in
      put smr "post2" "stop" 18;
      Util.wait_for (fun () -> List.mem 1 (l ()).Mu.Replica.confirmed) e;
      Util.wait_for (fun () -> Mu.Log.fuo r1'.Mu.Replica.log >= target) e)

(* Restarting a replica that is still running must be a no-op: no second
   incarnation, no rejoin record. *)
let restart_of_running_replica_is_noop () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      put smr "a" "1" 1;
      let r2 = Mu.Smr.replica smr 2 in
      Mu.Smr.restart_replica smr ~id:2;
      Sim.Engine.sleep e 5_000_000;
      check "same incarnation" true (Mu.Smr.replica smr 2 == r2);
      check "no rejoin recorded" true (Mu.Smr.rejoins smr = []);
      check_int "nothing in flight" 0 (Mu.Smr.restarts_in_flight smr);
      match Mu.Smr.restart_replica smr ~id:99 with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "unknown id accepted")

(* Quorum loss: with both followers dead the leader parks requests;
   past the queue bound it sheds with a retryable error; when one
   follower rejoins, the degraded window closes and the parked requests
   commit. The outage is one window: the establishes that keep failing
   inside it neither open another nor move its start, and the
   registry's [mu_degraded_ns] histogram agrees with the Smr totals. *)
let quorum_loss_sheds_then_resumes () =
  let cfg = { durable_cfg with Mu.Config.queue_limit = 4 } in
  let reg = Telemetry.Registry.create () in
  let quorum_lost =
    Telemetry.Registry.gauge reg ~labels:[ ("replica", "0") ] "mu_quorum_lost"
  in
  with_smr ~cfg ~reg (fun e smr ->
      Mu.Smr.wait_live smr;
      put smr "pre" "1" 1;
      let r1 = Mu.Smr.replica smr 1 and r2 = Mu.Smr.replica smr 2 in
      Sim.Host.kill_host r1.Mu.Replica.host;
      Sim.Host.kill_host r2.Mu.Replica.host;
      (* Submit a burst without yielding: the first [queue_limit] park at
         the (soon-to-be) degraded leader, the rest shed immediately. *)
      let mk i =
        Apps.Kv_store.encode_command ~client:9 ~req_id:i
          (Apps.Kv_store.Put { key = "q"; value = string_of_int i })
      in
      let ivs = List.init 12 (fun i -> Mu.Smr.submit_async ~retry:false smr (mk i)) in
      let shed_now, parked =
        List.partition (fun iv -> Sim.Engine.Ivar.is_filled iv) ivs
      in
      (* 12 submitted: the first hands off directly to the service fiber
         parked in Chan.recv (it never occupies the queue), 4 park at the
         bound, the remaining 7 shed. *)
      check_int "burst minus bound shed" 7 (List.length shed_now);
      check_int "sheds counted" 7 (Mu.Smr.shed_requests smr);
      List.iter
        (fun iv ->
          match Sim.Engine.Ivar.peek iv with
          | Some b -> check "shed reply is retryable" true (Mu.Smr.is_retryable b)
          | None -> Alcotest.fail "shed ivar empty")
        shed_now;
      (* The leader notices the lost quorum (first aborted propose); its
         first establish fails at the permission-ack deadline and opens a
         degraded window. Nothing commits meanwhile. *)
      Util.wait_for (fun () -> Telemetry.Registry.Gauge.value quorum_lost = 1) e;
      let opened_by = Sim.Engine.now e in
      let aborts () = (Mu.Smr.replica smr 0).Mu.Replica.metrics.Mu.Metrics.aborts in
      let aborts_at_open = aborts () in
      let committed_before = Mu.Log.fuo (Mu.Smr.replica smr 0).Mu.Replica.log in
      Sim.Engine.sleep e 30_000_000;
      check_int "no window closed during the outage" 0 (Mu.Smr.degraded_windows smr);
      check_int "window still open" 1 (Telemetry.Registry.Gauge.value quorum_lost);
      check "no parked request answered while degraded" true
        (List.for_all (fun iv -> not (Sim.Engine.Ivar.is_filled iv)) parked);
      check_int "nothing committed while degraded"
        committed_before
        (Mu.Log.fuo (Mu.Smr.replica smr 0).Mu.Replica.log);
      (* One follower rejoins: quorum is back, the window closes, parked
         requests commit. *)
      let restarted_at = Sim.Engine.now e in
      Mu.Smr.restart_replica smr ~id:1;
      Util.wait_for (fun () -> Mu.Smr.rejoins smr <> []) e;
      Util.wait_for
        (fun () -> List.for_all (fun iv -> Sim.Engine.Ivar.is_filled iv) parked)
        e;
      (* An establish fails at its 500 ms permission-ack deadline, so the
         one running across the restart fails too, inside the window. *)
      check "another establish failed inside the window" true (aborts () > aborts_at_open);
      check_int "one outage, one window" 1 (Mu.Smr.degraded_windows smr);
      check_int "window closed" 0 (Telemetry.Registry.Gauge.value quorum_lost);
      (* The window opened no later than [opened_by] and closed no
         earlier than the restart; a start moved to a later failed
         establish would make it far shorter. *)
      check "window spans the outage" true
        (Mu.Smr.degraded_total_ns smr >= restarted_at - opened_by);
      let count, sum =
        List.fold_left
          (fun (c, s) (m : Telemetry.Registry.metric) ->
            match m.kind with
            | Telemetry.Registry.Histogram h when m.name = "mu_degraded_ns" ->
              (c + Telemetry.Hdr.count h, s +. Telemetry.Hdr.sum h)
            | _ -> (c, s))
          (0, 0.0) (Telemetry.Registry.metrics reg)
      in
      check_int "registry windows = Smr windows" (Mu.Smr.degraded_windows smr) count;
      check "registry degraded ns = Smr degraded ns" true
        (sum = float_of_int (Mu.Smr.degraded_total_ns smr));
      Util.wait_for (fun () -> get smr "q" 100 <> None) e;
      check "resumed cluster serves writes" true
        (match get smr "resumed" 101 with None -> true | Some _ -> false);
      put smr "resumed" "yes" 102;
      Alcotest.(check (option string)) "resumed" (Some "yes") (get smr "resumed" 103))

(* Degraded-window accounting across two outages in one cluster: each
   quorum loss opens exactly one window, the Smr totals are the sum of
   both, and the registry's [mu_degraded_ns] histogram records one
   sample per window with the same sum. *)
let degrade_window_accounting () =
  let reg = Telemetry.Registry.create () in
  let quorum_lost =
    Telemetry.Registry.gauge reg ~labels:[ ("replica", "0") ] "mu_quorum_lost"
  in
  with_smr ~reg (fun e smr ->
      Mu.Smr.wait_live smr;
      put smr "pre" "1" 1;
      check_int "no window before an outage" 0 (Mu.Smr.degraded_windows smr);
      check_int "no degraded time before an outage" 0 (Mu.Smr.degraded_total_ns smr);
      (* Kill the followers in [dead], push one request so the leader
         notices, and return how long the window lasted at the least. *)
      let outage ~dead ~rejoin ~req =
        List.iter
          (fun id -> Sim.Host.kill_host (Mu.Smr.replica smr id).Mu.Replica.host)
          dead;
        let iv =
          Mu.Smr.submit_async ~retry:false smr
            (Apps.Kv_store.encode_command ~client:9 ~req_id:req
               (Apps.Kv_store.Put { key = "k"; value = string_of_int req }))
        in
        Util.wait_for (fun () -> Telemetry.Registry.Gauge.value quorum_lost = 1) e;
        let opened_by = Sim.Engine.now e in
        Sim.Engine.sleep e 10_000_000;
        check "parked while degraded" false (Sim.Engine.Ivar.is_filled iv);
        let restarted_at = Sim.Engine.now e in
        Mu.Smr.restart_replica smr ~id:rejoin;
        Util.wait_for (fun () -> Telemetry.Registry.Gauge.value quorum_lost = 0) e;
        Util.wait_for (fun () -> Sim.Engine.Ivar.is_filled iv) e;
        Util.wait_for (fun () -> Mu.Smr.restarts_in_flight smr = 0) e;
        restarted_at - opened_by
      in
      let span1 = outage ~dead:[ 1; 2 ] ~rejoin:1 ~req:10 in
      check_int "first outage, one window" 1 (Mu.Smr.degraded_windows smr);
      let d1 = Mu.Smr.degraded_total_ns smr in
      check "first window spans its outage" true (d1 >= span1);
      let span2 = outage ~dead:[ 1 ] ~rejoin:1 ~req:11 in
      check_int "second outage, second window" 2 (Mu.Smr.degraded_windows smr);
      let d2 = Mu.Smr.degraded_total_ns smr - d1 in
      check "second window spans its outage" true (d2 >= span2);
      let count, sum =
        List.fold_left
          (fun (c, s) (m : Telemetry.Registry.metric) ->
            match m.kind with
            | Telemetry.Registry.Histogram h when m.name = "mu_degraded_ns" ->
              (c + Telemetry.Hdr.count h, s +. Telemetry.Hdr.sum h)
            | _ -> (c, s))
          (0, 0.0) (Telemetry.Registry.metrics reg)
      in
      check_int "registry records one sample per window" 2 count;
      check "registry degraded ns = Smr degraded ns" true
        (sum = float_of_int (Mu.Smr.degraded_total_ns smr)))

(* Stop the serving leader and restart it, [rounds] times in one
   long-lived durable cluster, under open-loop KV traffic (one request
   every 5 us, each its own client). Every round must settle — the
   rejoin at parity and a leader that is not regrowing its followers —
   within 100 ms, and the whole history must be linearizable. Each
   restart used to leave stale permission state behind that made later
   rounds stall. At the default [recycle_interval] it is kept under ten
   rounds: leaders change faster than the interval, so the recycler never
   runs and the log fills. At 1 ms the recycler runs, and past one log
   lap a fail-back leader installs a checkpoint over slots of the
   previous lap, which the install must zero. *)
let repeated_leader_restarts_settle ?(recycle_interval = durable_cfg.Mu.Config.recycle_interval)
    ~seed ~rounds () =
  let cfg = { durable_cfg with Mu.Config.max_batch = 8; recycle_interval } in
  with_smr ~cfg ~seed (fun e smr ->
      Mu.Smr.wait_live smr;
      let rng = Sim.Rng.split (Sim.Engine.rng e) in
      let history = ref [] and open_ops = ref 0 and generating = ref true in
      Sim.Engine.spawn e ~name:"generator" (fun () ->
          let i = ref 0 in
          while !generating do
            let proc = !i in
            incr i;
            let key = Printf.sprintf "k%d" (Sim.Rng.int rng 1000) in
            let cmd =
              if Sim.Rng.bool rng then Apps.Kv_store.Get { key }
              else Apps.Kv_store.Put { key; value = Printf.sprintf "v%d" proc }
            in
            let invoked = Sim.Engine.now e in
            incr open_ops;
            Sim.Engine.spawn e ~name:"request" (fun () ->
                let payload = Apps.Kv_store.encode_command ~client:(proc + 2) ~req_id:1 cmd in
                let reply =
                  Apps.Kv_store.decode_reply
                    (Sim.Engine.Ivar.read (Mu.Smr.submit_async smr payload))
                in
                let kind =
                  match cmd, reply with
                  | Apps.Kv_store.Put { value; _ }, _ -> Workload.Linearizability.Write value
                  | _, Some (Apps.Kv_store.Value v) -> Workload.Linearizability.Read (Some v)
                  | _, _ -> Workload.Linearizability.Read None
                in
                history :=
                  {
                    Workload.Linearizability.proc;
                    invoked;
                    responded = Sim.Engine.now e;
                    key;
                    kind;
                  }
                  :: !history;
                decr open_ops);
            Sim.Engine.sleep e 5_000
          done);
      let within limit pred =
        let deadline = Sim.Engine.now e + limit in
        while (not (pred ())) && Sim.Engine.now e < deadline do
          Sim.Engine.sleep e 10_000
        done;
        pred ()
      in
      for round = 1 to rounds do
        Sim.Engine.sleep e 2_500_000;
        let l = Option.get (Mu.Smr.serving_leader smr) in
        Sim.Host.stop_process l.Mu.Replica.host;
        Sim.Engine.sleep e 2_000_000;
        Mu.Smr.restart_replica smr ~id:l.Mu.Replica.id;
        let settled () =
          List.length (Mu.Smr.rejoins smr) = round
          && Mu.Smr.restarts_in_flight smr = 0
          &&
          match Mu.Smr.serving_leader smr with
          | Some r -> not r.Mu.Replica.need_new_followers
          | None -> false
        in
        if not (within 100_000_000 settled) then
          Alcotest.failf "seed %Ld: round %d did not settle within 100 ms" seed round
      done;
      generating := false;
      check "every request answered" true (within 100_000_000 (fun () -> !open_ops = 0));
      check "history linearizable" true (Workload.Linearizability.check !history);
      check_int
        (Printf.sprintf "seed %Ld: invariant violations" seed)
        0
        (List.length (Mu.Invariants.check_all (Mu.Smr.replicas smr))))

let repeated_leader_restarts () =
  List.iter (fun seed -> repeated_leader_restarts_settle ~seed ~rounds:8 ()) [ 1L; 3L ]

let leader_restarts_past_a_lap () =
  List.iter
    (fun seed ->
      repeated_leader_restarts_settle ~recycle_interval:1_000_000 ~seed ~rounds:14 ())
    [ 1L; 3L ]

(* --- determinism --------------------------------------------------------- *)

(* Same seed + kill-restart scenario ⇒ byte-identical traces, rejoin
   included; and with no restart in the run, durable state on vs off is
   invisible (identical bytes) — recovery support costs nothing until
   used. *)
let recovery_runs_are_deterministic () =
  let run ~n seed =
    let scenario = Option.get (Faults.Scenario.by_name ~n "kill-restart") in
    let tr = Trace.Tracer.create ~capacity:(1 lsl 18) () in
    let o =
      Workload.Chaos.run ~on_engine:(Trace.Tracer.attach tr)
        {
          (Workload.Chaos.spec ~seed ~n scenario) with
          clients = Random { clients = 4; ops = 60; think = 100_000 };
        }
    in
    (Trace.Tracer.chrome_string tr, o)
  in
  let check_case ~n seed =
    let t1, o1 = run ~n seed in
    let t2, o2 = run ~n seed in
    let label what = Printf.sprintf "n=%d seed %Ld: %s" n seed what in
    Alcotest.(check string) (label "same seed, identical trace bytes") t1 t2;
    check (label "run passed") true (Workload.Chaos.passed o1);
    check (label "rejoin happened") true (o1.Workload.Chaos.rejoins <> []);
    check_int (label "same rejoins") (List.length o1.Workload.Chaos.rejoins)
      (List.length o2.Workload.Chaos.rejoins);
    check (label "entries pulled during rejoin") true
      (List.exists (fun r -> r.Mu.Smr.entries_pulled > 0) o1.Workload.Chaos.rejoins);
    t1
  in
  let t7 = check_case ~n:3 7L in
  (* The five-replica cluster too. *)
  ignore (check_case ~n:5 11L);
  let t8, _ = run ~n:3 8L in
  check "different seed diverges" true (t7 <> t8)

let durable_off_run_is_unchanged () =
  let scenario = Option.get (Faults.Scenario.by_name ~n:3 "crash-leader") in
  let run durable =
    let tr = Trace.Tracer.create ~capacity:(1 lsl 18) () in
    let spec = Workload.Chaos.spec ~seed:7L ~n:3 scenario in
    ignore
      (Workload.Chaos.run ~on_engine:(Trace.Tracer.attach tr)
         { spec with config = { spec.config with durable_state = durable } });
    Trace.Tracer.chrome_string tr
  in
  Alcotest.(check string) "durable backing invisible without restarts" (run false)
    (run true)

(* Each durable cluster takes its engine's next NVM namespace, which
   picks its replicas' region owners: the groups of a durable sharded
   deployment get their shard indices, a non-durable cluster takes
   none, and a restarted replica reopens its own cluster's regions. *)
let durable_namespaces_follow_creation () =
  let e = Sim.Engine.create ~seed:7L () in
  let app _ = Apps.Kv_store.smr_app () in
  let plain = Mu.Smr.create e Util.default_cal Mu.Config.default ~make_app:app in
  let sharded =
    Mu.Sharded.create e Util.default_cal durable_cfg ~shards:2
      ~make_app:(fun ~shard:_ ~replica -> app replica)
  in
  let smr = Mu.Smr.create e Util.default_cal durable_cfg ~make_app:app in
  let nvm = Sim.Engine.nvm e in
  let owns ns (r : Mu.Replica.t) =
    check_int "namespace" ns r.durable_ns;
    check "region owner" true (Recovery.Durable.has_durable_state nvm ~owner:((ns * 64) + r.id))
  in
  Array.iter
    (fun (r : Mu.Replica.t) -> check_int "non-durable" 0 r.durable_ns)
    (Mu.Smr.replicas plain);
  for shard = 0 to 1 do
    Array.iter (owns shard) (Mu.Smr.replicas (Mu.Sharded.shard sharded shard))
  done;
  Array.iter (owns 2) (Mu.Smr.replicas smr);
  Mu.Smr.start smr;
  Sim.Engine.spawn e ~name:"restart" (fun () ->
      Mu.Smr.wait_live smr;
      put smr "k" "v" 1;
      Sim.Host.kill_host (Mu.Smr.replica smr 2).Mu.Replica.host;
      Mu.Smr.restart_replica smr ~id:2;
      Util.wait_for (fun () -> Mu.Smr.rejoins smr <> []) e;
      owns 2 (Mu.Smr.replica smr 2);
      Mu.Smr.stop smr;
      Sim.Engine.halt e);
  Sim.Engine.run ~until:120_000_000_000 e;
  check_int "rejoined" 1 (List.length (Mu.Smr.rejoins smr))

let suite =
  [
    ("nvm regions persist", `Quick, nvm_regions_persist);
    ("durable members round-trip", `Quick, durable_members_roundtrip);
    ("catch-up reaches parity", `Quick, catchup_reaches_parity);
    ("catch-up converges on an advancing target", `Quick,
      catchup_converges_on_advancing_target);
    ("catch-up recheckpoints after recycle", `Quick, catchup_recheckpoints_after_recycle);
    ("catch-up stops and waits", `Quick, catchup_stops_and_waits);
    ("catch-up does not idle after a recycled round", `Quick,
     catchup_recycled_round_does_not_idle);
    ("backpressure bounds the queue", `Quick, backpressure_bounds_queue);
    ("degraded-window accounting", `Quick, degrade_window_accounting);
    ("follower kill-restart reaches parity", `Quick, follower_kill_restart_reaches_parity);
    ("leader kill-restart fails back", `Quick, leader_kill_restart_fails_back);
    ("rewire leaves no pending permission request", `Quick,
      rewire_leaves_no_pending_request);
    ("stopped process restarts", `Quick, stopped_process_restarts);
    ("restart of running replica is a no-op", `Quick, restart_of_running_replica_is_noop);
    ("quorum loss sheds then resumes", `Quick, quorum_loss_sheds_then_resumes);
    ("repeated leader restarts settle", `Quick, repeated_leader_restarts);
    ("leader restarts past a log lap", `Quick, leader_restarts_past_a_lap);
    ("recovery runs deterministic", `Quick, recovery_runs_are_deterministic);
    ("durable off is unchanged", `Quick, durable_off_run_is_unchanged);
    ("durable namespaces follow creation", `Quick, durable_namespaces_follow_creation);
  ]

(* Tests for the SMR façade: client path, batching, pipelining, response
   delivery, replayer integration, recycling, and failover behaviour at
   the system level. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let counting_app () =
  let log = ref [] in
  ( log,
    fun _id ->
      Mu.Smr.stateless_app (fun req ->
          log := Bytes.to_string req :: !log;
          Bytes.of_string ("ack:" ^ Bytes.to_string req)) )

let with_smr ?(cfg = Mu.Config.default) ?(make_app = fun _ -> Mu.Smr.stateless_app Fun.id) f
    =
  let e = Util.engine () in
  let smr = Mu.Smr.create e Util.default_cal cfg ~make_app in
  Mu.Smr.start smr;
  let result = ref None in
  Sim.Engine.spawn e ~name:"driver" (fun () ->
      result := Some (f e smr);
      Mu.Smr.stop smr;
      Sim.Engine.halt e);
  Sim.Engine.run ~until:120_000_000_000 e;
  match !result with Some r -> r | None -> Alcotest.fail "scenario did not finish"

let batch_roundtrip () =
  let payloads = [ Bytes.of_string "a"; Bytes.empty; Bytes.of_string "ccc" ] in
  match Mu.Smr.decode_batch (Mu.Smr.encode_batch payloads) with
  | Some got ->
    Alcotest.(check (list string))
      "roundtrip"
      (List.map Bytes.to_string payloads)
      (List.map Bytes.to_string got)
  | None -> Alcotest.fail "decode failed"

let empty_batch_roundtrip () =
  match Mu.Smr.decode_batch (Mu.Smr.encode_batch []) with
  | Some [] -> ()
  | Some _ | None -> Alcotest.fail "expected empty batch"

let submit_gets_response () =
  with_smr
    ~make_app:(fun _ -> Mu.Smr.stateless_app (fun req -> Bytes.cat (Bytes.of_string "r:") req))
    (fun e smr ->
      Mu.Smr.wait_live smr;
      let resp = Mu.Smr.submit smr (Bytes.of_string "ping") in
      Alcotest.(check string) "response" "r:ping" (Bytes.to_string resp);
      ignore e)

let submissions_execute_in_order () =
  let log, make_app = counting_app () in
  with_smr ~make_app (fun e smr ->
      Mu.Smr.wait_live smr;
      for i = 1 to 20 do
        ignore (Mu.Smr.submit smr (Bytes.of_string (string_of_int i)))
      done;
      ignore e);
  let leader_view = List.rev !log in
  (* Every replica applied; the leader applied each exactly once, in
     order. With 3 replicas each request appears up to 3 times overall;
     check the leader's subsequence by deduplication order. *)
  let seen = Hashtbl.create 16 in
  let firsts =
    List.filter
      (fun s ->
        if Hashtbl.mem seen s then false
        else begin
          Hashtbl.add seen s ();
          true
        end)
      leader_view
  in
  Alcotest.(check (list string))
    "first occurrences in submission order"
    (List.init 20 (fun i -> string_of_int (i + 1)))
    firsts

let followers_apply_too () =
  let applied = Array.make 3 0 in
  with_smr
    ~make_app:(fun id ->
      Mu.Smr.stateless_app (fun _ ->
          applied.(id) <- applied.(id) + 1;
          Bytes.empty))
    (fun e smr ->
      Mu.Smr.wait_live smr;
      for _ = 1 to 10 do
        ignore (Mu.Smr.submit smr (Bytes.of_string "x"))
      done;
      (* One more commit so piggybacking releases the 10th, then wait. *)
      ignore (Mu.Smr.submit smr (Bytes.of_string "last"));
      Sim.Engine.sleep e 2_000_000;
      check "replica 1 applied >= 10" true (applied.(1) >= 10);
      check "replica 2 applied >= 10" true (applied.(2) >= 10))

let batching_coalesces () =
  let cfg = { Mu.Config.default with Mu.Config.max_batch = 8 } in
  with_smr ~cfg (fun e smr ->
      Mu.Smr.wait_live smr;
      let leader = Option.get (Mu.Smr.leader smr) in
      let fuo_before = Mu.Log.fuo leader.Mu.Replica.log in
      (* Submit a burst asynchronously, then wait for all responses. *)
      let ivs =
        List.init 16 (fun i -> Mu.Smr.submit_async smr (Bytes.of_string (string_of_int i)))
      in
      List.iter (fun iv -> ignore (Sim.Engine.Ivar.read iv)) ivs;
      let slots_used = Mu.Log.fuo leader.Mu.Replica.log - fuo_before in
      check
        (Printf.sprintf "batched into fewer slots (%d for 16 requests)" slots_used)
        true (slots_used < 16);
      ignore e)

let pipelining_works () =
  let cfg = { Mu.Config.default with Mu.Config.max_outstanding = 4 } in
  with_smr ~cfg (fun e smr ->
      Mu.Smr.wait_live smr;
      let ivs =
        List.init 40 (fun i -> Mu.Smr.submit_async smr (Bytes.of_string (string_of_int i)))
      in
      List.iter (fun iv -> ignore (Sim.Engine.Ivar.read iv)) ivs;
      (* All committed and in log order on the leader. *)
      let leader = Option.get (Mu.Smr.leader smr) in
      check "all requests committed" true (Mu.Log.fuo leader.Mu.Replica.log >= 40);
      ignore e)

let pipelined_throughput_exceeds_serial () =
  let run cfg n =
    with_smr ~cfg (fun e smr ->
        Mu.Smr.wait_live smr;
        let t0 = Sim.Engine.now e in
        let ivs = List.init n (fun _ -> Mu.Smr.submit_async smr (Bytes.make 64 'x')) in
        List.iter (fun iv -> ignore (Sim.Engine.Ivar.read iv)) ivs;
        Sim.Engine.now e - t0)
  in
  let serial = run Mu.Config.default 200 in
  let piped = run { Mu.Config.default with Mu.Config.max_outstanding = 8 } 200 in
  check
    (Printf.sprintf "pipelining faster (serial %dns vs piped %dns)" serial piped)
    true
    (piped * 3 < serial * 2)

let failover_under_load () =
  let log, make_app = counting_app () in
  with_smr ~make_app (fun e smr ->
      Mu.Smr.wait_live smr;
      ignore (Mu.Smr.submit smr (Bytes.of_string "pre"));
      let r0 = Mu.Smr.replica smr 0 in
      Sim.Host.pause r0.Mu.Replica.host;
      (* The request retransmits to the new leader and commits. *)
      let resp = Mu.Smr.submit smr (Bytes.of_string "during") in
      check "committed during failover" true (Bytes.length resp >= 0);
      let r1 = Mu.Smr.replica smr 1 in
      check "new leader serving" true (Mu.Replica.is_leader r1);
      Sim.Host.resume r0.Mu.Replica.host;
      Util.wait_for (fun () -> Mu.Replica.is_leader r0) e;
      let resp2 = Mu.Smr.submit smr (Bytes.of_string "after") in
      ignore resp2;
      check "requests were executed" true (List.mem "during" !log && List.mem "after" !log))

(* Fail-over under open-loop load (§7.3): one request every 5 us on a
   durable cluster whose leader's process is stopped, then restarted.
   The first reply after the fault comes within 900 us: detection
   (~600 us) plus two permission changes. The new leader does not wait
   for the permission ack of the leader it replaced. *)
let unavailability_under_open_loop () =
  let cfg = { Mu.Config.default with Mu.Config.durable_state = true; max_batch = 8 } in
  with_smr ~cfg (fun e smr ->
      Mu.Smr.wait_live smr;
      let generating = ref true and t_fail = ref max_int and first_reply = ref max_int in
      Sim.Engine.spawn e ~name:"generator" (fun () ->
          while !generating do
            Sim.Engine.spawn e ~name:"req" (fun () ->
                ignore (Sim.Engine.Ivar.read (Mu.Smr.submit_async smr (Bytes.of_string "x")));
                let now = Sim.Engine.now e in
                if now > !t_fail then first_reply := min !first_reply now);
            Sim.Engine.sleep e 5_000
          done);
      Sim.Engine.sleep e 2_500_000;
      let leader = Option.get (Mu.Smr.serving_leader smr) in
      t_fail := Sim.Engine.now e;
      Sim.Host.stop_process leader.Mu.Replica.host;
      Sim.Engine.sleep e 2_000_000;
      Mu.Smr.restart_replica smr ~id:leader.Mu.Replica.id;
      Util.wait_for (fun () -> Mu.Smr.rejoins smr <> []) e;
      generating := false;
      let unavail = !first_reply - !t_fail in
      check (Printf.sprintf "unavailable for %d ns (at most 900 us)" unavail) true
        (unavail <= 900_000))

let no_unique_leader_during_transition () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      let r0 = Mu.Smr.replica smr 0 in
      Sim.Host.pause r0.Mu.Replica.host;
      (* Immediately after the pause, r0 still claims leadership and no
         other replica does: Smr.leader reports it; after detection, both
         r0 (stale) and r1 claim it, so [leader] is None until r0 resumes
         and demotes. *)
      Sim.Engine.sleep e 1_500_000;
      check "two claimants -> no unique leader" true (Mu.Smr.leader smr = None);
      Sim.Host.resume r0.Mu.Replica.host;
      Util.wait_for
        (fun () ->
          match Mu.Smr.leader smr with Some r -> r.Mu.Replica.id = 0 | None -> false)
        e)

let recycling_under_smr_load () =
  let cfg =
    { Mu.Config.default with Mu.Config.log_slots = 256; recycle_slack = 64;
      recycle_interval = 200_000 }
  in
  with_smr ~cfg (fun e smr ->
      Mu.Smr.wait_live smr;
      for _ = 1 to 600 do
        ignore (Mu.Smr.submit smr (Bytes.make 32 'r'))
      done;
      let leader = Option.get (Mu.Smr.leader smr) in
      check "wrapped the log several times" true (Mu.Log.fuo leader.Mu.Replica.log > 512);
      check "recycler kept up" true (leader.Mu.Replica.zeroed_up_to > 256);
      ignore e)

let recycler_respects_unconfirmed_followers () =
  (* Regression: a replica outside the confirmed-followers set (late
     permission ack after a leadership change) must still hold back log
     recycling; otherwise the next leader change copies recycled (empty)
     slots into its log — the kv_failover crash. Repeated fail-overs with
     aggressive recycling under load must never create a hole. *)
  let cfg =
    { Mu.Config.default with Mu.Config.log_slots = 512; recycle_slack = 64;
      recycle_interval = 300_000 }
  in
  with_smr ~cfg (fun e smr ->
      Mu.Smr.wait_live smr;
      for round = 1 to 3 do
        for _ = 1 to 120 do
          ignore (Mu.Smr.submit smr (Bytes.make 32 'z'))
        done;
        let leader = Option.get (Mu.Smr.leader smr) in
        Sim.Host.pause leader.Mu.Replica.host;
        (* Keep the load up during fail-over. *)
        for _ = 1 to 30 do
          ignore (Mu.Smr.submit smr (Bytes.make 32 'z'))
        done;
        Sim.Host.resume leader.Mu.Replica.host;
        Util.wait_for
          (fun () ->
            match Mu.Smr.leader smr with
            | Some r -> not r.Mu.Replica.need_new_followers
            | None -> false)
          e;
        ignore round
      done;
      (* No replica may have an empty slot between its applied index and
         its FUO. *)
      Array.iter
        (fun (r : Mu.Replica.t) ->
          for i = r.Mu.Replica.applied to Mu.Log.fuo r.Mu.Replica.log - 1 do
            check
              (Printf.sprintf "no hole at %d on replica %d" i r.Mu.Replica.id)
              true
              (Mu.Log.read_slot r.Mu.Replica.log i <> None)
          done)
        (Mu.Smr.replicas smr))

let checksum_canary_cluster_works () =
  let cfg = { Mu.Config.default with Mu.Config.checksum_canary = true } in
  with_smr ~cfg (fun e smr ->
      Mu.Smr.wait_live smr;
      for i = 1 to 20 do
        ignore (Mu.Smr.submit smr (Bytes.of_string (string_of_int i)))
      done;
      (* Fail over once under checksum canaries too. *)
      let r0 = Mu.Smr.replica smr 0 in
      Sim.Host.pause r0.Mu.Replica.host;
      ignore (Mu.Smr.submit smr (Bytes.of_string "during"));
      Sim.Host.resume r0.Mu.Replica.host;
      Util.wait_for (fun () -> Mu.Replica.is_leader r0) e;
      ignore (Mu.Smr.submit smr (Bytes.of_string "after"));
      Sim.Engine.sleep e 2_000_000;
      Alcotest.(check (list string))
        "invariants hold" []
        (List.map
           (Fmt.str "%a" Mu.Invariants.pp_violation)
           (Mu.Invariants.check_all (Mu.Smr.replicas smr))))

let sharded_commuting_ops () =
  let e = Util.engine () in
  let per_shard_counts = Array.make 2 0 in
  let s =
    Mu.Sharded.create e Util.default_cal Mu.Config.default ~shards:2
      ~make_app:(fun ~shard ~replica:_ ->
        Mu.Smr.stateless_app (fun _ ->
            per_shard_counts.(shard) <- per_shard_counts.(shard) + 1;
            Bytes.empty))
  in
  Mu.Sharded.start s;
  let ok = ref false in
  Sim.Engine.spawn e ~name:"driver" (fun () ->
      Mu.Sharded.wait_live s;
      (* Same key always lands on the same shard. *)
      let k0 = "alpha" and k1 = "omega" in
      check "routing stable" true
        (Mu.Sharded.shard_of_key s k0 = Mu.Sharded.shard_of_key s k0);
      for _ = 1 to 10 do
        ignore (Mu.Sharded.submit s ~key:k0 (Bytes.of_string "x"));
        ignore (Mu.Sharded.submit s ~key:k1 (Bytes.of_string "y"))
      done;
      Sim.Engine.sleep e 2_000_000;
      (* 20 requests x 3 replicas, minus the per-shard tail entries that
         commit piggybacking holds back at followers. *)
      check "requests applied across the shards" true
        (per_shard_counts.(0) + per_shard_counts.(1) >= 50);
      ok := true;
      Mu.Sharded.stop s;
      Sim.Engine.halt e);
  Sim.Engine.run ~until:120_000_000_000 e;
  check "finished" true !ok

(* Client retry. Requests submitted while the leader's host is paused
   are captured by its service loop and held there; with no reply after
   2 ms the client resends them, and the new leader commits the resend.
   [per_instant] requests are submitted in the same nanosecond at each
   of three instants 1 us apart, after pausing the leader's host and
   the next [paused - 1] replicas' hosts for 5 ms. Every run, observed
   or not, keeps its retries on the cluster's one self-rearming timer,
   so a run observed from the first event ([Profiled]) or only from
   after the submits ([Late]: profiler and probe sink attached once the
   retries are armed) must resend at the bare run's instants — each a submit time plus a
   multiple of 2 ms — and reply and commit identically. A watcher at
   each candidate instant reads [Mu.Smr.resends] before the instant's
   timer (it was queued before the submit) and again after it (it
   re-queues itself at the same instant), so every resend is pinned to
   its instant. *)
type observed = Bare | Profiled | Late

type retry_run = {
  submits : int list; (* the three submit instants *)
  resends : (int * int) list; (* (instant, resends) at watched instants *)
  total : int;
  replies : (int * int * string) list;
  commits : (int * string * int) list;
  pending : int; (* [retries_pending] once every reply is in *)
}

let noop_profiler =
  {
    Sim.Engine.prof_event = (fun ~now:_ -> ());
    prof_attr = (fun ~pid:_ ~tid:_ ~spans:_ -> ());
    prof_fiber = (fun ~tid:_ ~pid:_ ~name:_ -> ());
    prof_span = (fun ~id:_ ~name:_ -> ());
    prof_host = (fun ~pid:_ ~name:_ -> ());
  }

let client_retry_run ?(per_instant = 1) ?(paused = 1) observed =
  let retry_interval = 2_000_000 in
  let e = Util.engine () in
  if observed = Profiled then Sim.Engine.set_profiler e noop_profiler;
  let commits = Hashtbl.create 16 in
  let smr =
    Mu.Smr.create e Util.default_cal Mu.Config.default ~make_app:(fun id ->
        Mu.Smr.stateless_app (fun req ->
            let k = (id, Bytes.to_string req) in
            Hashtbl.replace commits k (1 + Option.value ~default:0 (Hashtbl.find_opt commits k));
            Bytes.cat (Bytes.of_string "ack:") req))
  in
  Mu.Smr.start smr;
  let submits = ref [] and resends = ref [] and replies = ref [] and pending = ref (-1) in
  let watch at =
    Sim.Engine.schedule e ~at (fun () ->
        let before = Mu.Smr.resends smr in
        Sim.Engine.schedule e ~at (fun () ->
            let n = Mu.Smr.resends smr - before in
            if n > 0 then resends := (at, n) :: !resends))
  in
  Sim.Engine.spawn e ~name:"driver" (fun () ->
      Mu.Smr.wait_live smr;
      let leader = Option.get (Mu.Smr.leader smr) in
      let hosts =
        List.init paused (fun k ->
            (Mu.Smr.replica smr ((leader.Mu.Replica.id + k) mod 3)).Mu.Replica.host)
      in
      List.iter Sim.Host.pause hosts;
      let open_reqs = ref (3 * per_instant) in
      for n = 0 to 2 do
        let now = Sim.Engine.now e in
        submits := now :: !submits;
        for k = 1 to 5 do
          watch (now + (k * retry_interval))
        done;
        for j = 1 to per_instant do
          let i = (n * per_instant) + j in
          let iv = Mu.Smr.submit_async smr (Bytes.of_string (Printf.sprintf "req-%d" i)) in
          Sim.Engine.spawn e ~name:"client" (fun () ->
              let reply = Sim.Engine.Ivar.read iv in
              replies := (i, Sim.Engine.now e, Bytes.to_string reply) :: !replies;
              decr open_reqs)
        done;
        Sim.Engine.sleep e 1_000
      done;
      if observed = Late then begin
        Sim.Engine.set_profiler e noop_profiler;
        Sim.Probe.set_sink (Sim.Engine.probe e) ignore
      end;
      Sim.Engine.sleep e 5_000_000;
      List.iter Sim.Host.resume hosts;
      Util.wait_for (fun () -> !open_reqs = 0) e;
      pending := Mu.Smr.retries_pending smr;
      (* Let the resumed ex-leader settle before counting commits. *)
      Sim.Engine.sleep e 10_000_000;
      Mu.Smr.stop smr;
      Sim.Engine.halt e);
  Sim.Engine.run ~until:120_000_000_000 e;
  {
    submits = List.rev !submits;
    resends = List.rev !resends;
    total = Mu.Smr.resends smr;
    replies = List.sort compare !replies;
    commits =
      List.sort compare (Hashtbl.fold (fun (id, p) n acc -> (id, p, n) :: acc) commits []);
    pending = !pending;
  }

let check_retry_run name ~per_instant run =
  check (name ^ ": at least one resend") true (run.total > 0);
  check_int (name ^ ": every resend at a submit time plus a multiple of 2 ms") run.total
    (List.fold_left (fun acc (_, n) -> acc + n) 0 run.resends);
  check_int (name ^ ": all answered") (3 * per_instant) (List.length run.replies);
  List.iter
    (fun (i, _, reply) ->
      Alcotest.(check string) "reply bytes" (Printf.sprintf "ack:req-%d" i) reply)
    run.replies;
  check_int (name ^ ": no retry timer holds a request once all replies are in") 0 run.pending

let client_retry_resends () =
  let bare = client_retry_run Bare in
  check_retry_run "bare" ~per_instant:1 bare;
  List.iter
    (fun (name, observed) ->
      let run = client_retry_run observed in
      check_retry_run name ~per_instant:1 run;
      Alcotest.(check (list (pair int int)))
        (name ^ ": same resend instants") bare.resends run.resends;
      check_int (name ^ ": same resend count") bare.total run.total;
      Alcotest.(check (list (triple int int string)))
        (name ^ ": same replies and reply times") bare.replies run.replies;
      Alcotest.(check (list (triple int string int)))
        (name ^ ": same commits per payload") bare.commits run.commits)
    [ ("profiled", Profiled); ("attached late", Late) ];
  (* 75 requests pending at once double the 64-slot ring, and each
     instant's 25 fall due together, so one timer event drains them.
     With two of three hosts paused no replica can answer, so each is
     resent 2 ms after its own submit, whichever ring it was armed in. *)
  let grown = client_retry_run ~per_instant:25 ~paused:2 Bare in
  check_retry_run "ring growth" ~per_instant:25 grown;
  List.iter
    (fun at ->
      check_int "ring growth: each request resent 2 ms after its submit" 25
        (Option.value ~default:0 (List.assoc_opt (at + 2_000_000) grown.resends)))
    grown.submits

let stop_halts_service () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      ignore (Mu.Smr.submit smr (Bytes.of_string "x"));
      Mu.Smr.stop smr;
      Sim.Engine.sleep e 5_000_000;
      let iv = Mu.Smr.submit_async ~retry:false smr (Bytes.of_string "y") in
      Sim.Engine.sleep e 5_000_000;
      check "no service after stop" false (Sim.Engine.Ivar.is_filled iv))

let suite =
  [
    ("batch roundtrip", `Quick, batch_roundtrip);
    ("empty batch roundtrip", `Quick, empty_batch_roundtrip);
    ("submit gets response", `Quick, submit_gets_response);
    ("submissions execute in order", `Quick, submissions_execute_in_order);
    ("followers apply too", `Quick, followers_apply_too);
    ("batching coalesces", `Quick, batching_coalesces);
    ("pipelining works", `Quick, pipelining_works);
    ("pipelined throughput exceeds serial", `Quick, pipelined_throughput_exceeds_serial);
    ("failover under load", `Quick, failover_under_load);
    ("unavailability under open-loop load", `Quick, unavailability_under_open_loop);
    ("no unique leader during transition", `Quick, no_unique_leader_during_transition);
    ("recycling under smr load", `Quick, recycling_under_smr_load);
    ("recycler respects unconfirmed followers", `Quick, recycler_respects_unconfirmed_followers);
    ("checksum canary cluster works", `Quick, checksum_canary_cluster_works);
    ("sharded commuting ops", `Quick, sharded_commuting_ops);
    ("stop halts service", `Quick, stop_halts_service);
    ("client retry resends held requests", `Quick, client_retry_resends);
  ]

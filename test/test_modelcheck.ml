(* Tests for lib/modelcheck: pure reference models, the conformance
   checker, history generation, the spec shrinker and the repro
   bundle codec (DESIGN.md §19). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- pure KV model --------------------------------------------------------- *)

let kv_model_semantics () =
  let open Modelcheck.Model in
  let m = Kv.empty in
  let m, r = Kv.apply m ~client:1 ~req_id:1 (Apps.Kv_store.Get { key = "a" }) in
  check "fresh get" true (r = Apps.Kv_store.Not_found);
  let m, r =
    Kv.apply m ~client:1 ~req_id:2 (Apps.Kv_store.Put { key = "a"; value = "x" })
  in
  check "put stored" true (r = Apps.Kv_store.Stored);
  let m, r = Kv.apply m ~client:2 ~req_id:1 (Apps.Kv_store.Get { key = "a" }) in
  check "get sees put" true (r = Apps.Kv_store.Value "x");
  (* Replaying the last (client, req) returns the memo, not a re-execution. *)
  let m, r =
    Kv.apply m ~client:1 ~req_id:2 (Apps.Kv_store.Put { key = "a"; value = "y" })
  in
  check "dup suppressed" true (r = Apps.Kv_store.Stored);
  check "dup did not re-execute" true (Kv.find m "a" = Some "x");
  let m, r = Kv.apply m ~client:1 ~req_id:3 (Apps.Kv_store.Delete { key = "a" }) in
  check "delete deleted" true (r = Apps.Kv_store.Deleted);
  let _, r = Kv.apply m ~client:1 ~req_id:4 (Apps.Kv_store.Delete { key = "a" }) in
  check "second delete not found" true (r = Apps.Kv_store.Not_found)

(* The pure book model must emit event-for-event what the real matching
   engine emits, on generated order flow and on the replace edge cases. *)
let book_model_matches_engine () =
  let rng = Sim.Rng.create 11L in
  let flow = Workload.Generators.order_flow rng in
  let real = Apps.Order_book.create () in
  let model = ref Modelcheck.Model.Book.empty in
  for i = 1 to 400 do
    let cmd = Workload.Generators.next_order flow in
    let real_events = Apps.Exchange.apply real cmd in
    let model', model_events = Modelcheck.Model.Book.apply !model cmd in
    model := model';
    if real_events <> model_events then
      Alcotest.failf "order %d: real %a / model %a" i
        (Fmt.Dump.list Apps.Order_book.pp_event)
        real_events
        (Fmt.Dump.list Apps.Order_book.pp_event)
        model_events
  done;
  check_int "open orders agree" (Apps.Order_book.open_order_count real)
    (Modelcheck.Model.Book.open_orders !model);
  check_int "bid qty agrees"
    (Apps.Order_book.open_qty real Apps.Order_book.Buy)
    (Modelcheck.Model.Book.open_qty !model Apps.Order_book.Buy)

let book_model_replace_rules () =
  let real = Apps.Order_book.create () in
  let model = ref Modelcheck.Model.Book.empty in
  let step cmd =
    let real_events = Apps.Exchange.apply real cmd in
    let model', model_events = Modelcheck.Model.Book.apply !model cmd in
    model := model';
    check "replace events agree" true (real_events = model_events)
  in
  step (Apps.Exchange.Limit { id = 1; side = Apps.Order_book.Buy; price = 100; qty = 10 });
  step (Apps.Exchange.Limit { id = 2; side = Apps.Order_book.Buy; price = 100; qty = 10 });
  (* Pure size decrease keeps priority... *)
  step (Apps.Exchange.Replace { id = 1; price = None; qty = 5 });
  (* ...a price change loses it (cancel + re-enter). *)
  step (Apps.Exchange.Replace { id = 2; price = Some 101; qty = 10 });
  (* Crossing replace matches immediately. *)
  step (Apps.Exchange.Limit { id = 3; side = Apps.Order_book.Sell; price = 102; qty = 4 });
  step (Apps.Exchange.Replace { id = 2; price = Some 102; qty = 10 });
  step (Apps.Exchange.Cancel { id = 1 });
  step (Apps.Exchange.Cancel { id = 99 });
  check_int "books agree at end" (Apps.Order_book.open_order_count real)
    (Modelcheck.Model.Book.open_orders !model)

(* --- history generation ---------------------------------------------------- *)

let history_deterministic_and_mixed () =
  let gen seed =
    Modelcheck.History.generate ~clients:3 ~ops_per_client:20 (Sim.Rng.create seed)
  in
  check "same seed, same history" true (gen 5L = gen 5L);
  check "different seed, different history" true (gen 5L <> gen 6L);
  let h = gen 5L in
  let s = Modelcheck.History.stats h in
  check_int "all ops counted" 60 s.Modelcheck.History.h_ops;
  check "all op kinds exercised" true
    (s.Modelcheck.History.h_puts > 0
    && s.Modelcheck.History.h_gets > 0
    && s.Modelcheck.History.h_deletes > 0);
  (* Request ids are per-client 1..N — the dedup identity the cluster
     relies on. *)
  List.iter
    (fun client ->
      List.iteri
        (fun i (op : Workload.Chaos.scripted_op) ->
          check_int "req ids sequential" (i + 1) op.Workload.Chaos.s_req)
        client)
    h

(* --- conformance checker --------------------------------------------------- *)

let rcd ?reply ~proc ~req ~inv ~res cmd =
  {
    Workload.Chaos.r_proc = proc;
    r_req = req;
    r_invoked = inv;
    r_responded = res;
    r_cmd = cmd;
    r_reply = reply;
  }

let conformance_sequential_pass () =
  let records =
    [
      rcd ~proc:1 ~req:1 ~inv:0 ~res:10
        ~reply:Apps.Kv_store.Stored
        (Apps.Kv_store.Put { key = "a"; value = "x" });
      rcd ~proc:1 ~req:2 ~inv:20 ~res:30
        ~reply:(Apps.Kv_store.Value "x")
        (Apps.Kv_store.Get { key = "a" });
      rcd ~proc:1 ~req:3 ~inv:40 ~res:50 ~reply:Apps.Kv_store.Deleted
        (Apps.Kv_store.Delete { key = "a" });
      rcd ~proc:1 ~req:4 ~inv:60 ~res:70 ~reply:Apps.Kv_store.Not_found
        (Apps.Kv_store.Get { key = "a" });
    ]
  in
  check "conformant" true (Workload.Chaos.check records)

let conformance_catches_lost_update () =
  (* The injected-bug shape: a Put acked Stored whose value a later read
     never observes. The register checker cannot fault the [Erase]-free
     equivalent of this; the model checker must. *)
  let records =
    [
      rcd ~proc:1 ~req:1 ~inv:0 ~res:10 ~reply:Apps.Kv_store.Stored
        (Apps.Kv_store.Put { key = "a"; value = "x" });
      rcd ~proc:1 ~req:2 ~inv:20 ~res:30 ~reply:Apps.Kv_store.Not_found
        (Apps.Kv_store.Get { key = "a" });
    ]
  in
  match Workload.Chaos.witness records with
  | None -> Alcotest.fail "lost update not caught"
  | Some w ->
    check_str "witness key" "a" w.Workload.Chaos.wkey;
    check_int "witness is the minimal pair" 2
      (List.length w.Workload.Chaos.wops)

let conformance_delete_reply_semantics () =
  (* [Deleted] asserts the key existed: with no possible prior value, the
     reply is non-conformant even though as an abstract register erase it
     would pass. *)
  let records =
    [
      rcd ~proc:1 ~req:1 ~inv:0 ~res:10 ~reply:Apps.Kv_store.Deleted
        (Apps.Kv_store.Delete { key = "a" });
    ]
  in
  check "deleted-without-put caught" true
    (not (Workload.Chaos.check records))

let conformance_concurrency_flexible () =
  (* A read overlapping a put may order either side of it. *)
  let records =
    [
      rcd ~proc:1 ~req:1 ~inv:0 ~res:100 ~reply:Apps.Kv_store.Stored
        (Apps.Kv_store.Put { key = "a"; value = "x" });
      rcd ~proc:2 ~req:1 ~inv:10 ~res:90 ~reply:Apps.Kv_store.Not_found
        (Apps.Kv_store.Get { key = "a" });
      rcd ~proc:3 ~req:1 ~inv:10 ~res:95
        ~reply:(Apps.Kv_store.Value "x")
        (Apps.Kv_store.Get { key = "a" });
    ]
  in
  check "both orders admitted" true (Workload.Chaos.check records)

let conformance_pending_write_harmless () =
  (* An unanswered put may be linearized last, so it can never manufacture
     a violation on its own. *)
  let records =
    [
      rcd ~proc:1 ~req:1 ~inv:0 ~res:max_int
        (Apps.Kv_store.Put { key = "a"; value = "x" });
      rcd ~proc:2 ~req:1 ~inv:5 ~res:20 ~reply:Apps.Kv_store.Not_found
        (Apps.Kv_store.Get { key = "a" });
    ]
  in
  check "pending write placed last" true
    (Workload.Chaos.check records)

(* --- linearizability witness (workload layer) ------------------------------ *)

let lin_op ~proc ~inv ~res ~key kind =
  { Workload.Linearizability.proc; invoked = inv; responded = res; key; kind }

let witness_minimal_counterexample () =
  (* Three ops of noise around a two-op violation: witness keeps the pair. *)
  let ops =
    [
      lin_op ~proc:1 ~inv:0 ~res:10 ~key:"a" (Workload.Linearizability.Write "x");
      lin_op ~proc:1 ~inv:20 ~res:30 ~key:"b" (Workload.Linearizability.Write "y");
      lin_op ~proc:2 ~inv:40 ~res:50 ~key:"b"
        (Workload.Linearizability.Read (Some "y"));
      lin_op ~proc:2 ~inv:60 ~res:70 ~key:"a" (Workload.Linearizability.Read None);
      lin_op ~proc:2 ~inv:80 ~res:90 ~key:"a"
        (Workload.Linearizability.Read (Some "x"));
    ]
  in
  check "history fails" false (Workload.Linearizability.check ops);
  match Workload.Linearizability.witness ops with
  | None -> Alcotest.fail "no witness for failing history"
  | Some w ->
    check_str "failing key" "a" w.Workload.Linearizability.wkey;
    (* The minimizer drops the trailing Read (Some x): the acked write
       plus the read that misses it is already a counterexample. *)
    check_int "minimal size" 2 (List.length w.Workload.Linearizability.wops);
    check "witness itself fails" false
      (Workload.Linearizability.check w.Workload.Linearizability.wops);
    check "passing history has no witness" true
      (Workload.Linearizability.witness
         [
           lin_op ~proc:1 ~inv:0 ~res:10 ~key:"a"
             (Workload.Linearizability.Write "x");
         ]
      = None)

let witness_erase_semantics () =
  (* Erase then read-none is fine; read of the erased value after the
     erase's response is not. *)
  let ok =
    [
      lin_op ~proc:1 ~inv:0 ~res:10 ~key:"a" (Workload.Linearizability.Write "x");
      lin_op ~proc:1 ~inv:20 ~res:30 ~key:"a" Workload.Linearizability.Erase;
      lin_op ~proc:1 ~inv:40 ~res:50 ~key:"a" (Workload.Linearizability.Read None);
    ]
  in
  check "erase linearizable" true (Workload.Linearizability.check ok);
  let bad =
    [
      lin_op ~proc:1 ~inv:0 ~res:10 ~key:"a" (Workload.Linearizability.Write "x");
      lin_op ~proc:1 ~inv:20 ~res:30 ~key:"a" Workload.Linearizability.Erase;
      lin_op ~proc:1 ~inv:40 ~res:50 ~key:"a"
        (Workload.Linearizability.Read (Some "x"));
    ]
  in
  check "read after erase rejected" false (Workload.Linearizability.check bad)

(* --- scripted chaos runs --------------------------------------------------- *)

let op think req cmd = { Workload.Chaos.s_think = think; s_req = req; s_cmd = cmd }

let script_spec ~seed scenario script =
  { (Workload.Chaos.spec ~seed ~n:3 scenario) with clients = Script script }

let scripted ~seed scenario script = Workload.Chaos.run (script_spec ~seed scenario script)

let scripted_run_records_replies () =
  let script =
    [
      [
        op 0 1 (Apps.Kv_store.Put { key = "a"; value = "x" });
        op 100_000 2 (Apps.Kv_store.Get { key = "a" });
        op 0 3 (Apps.Kv_store.Delete { key = "a" });
      ];
      [ op 50_000 1 (Apps.Kv_store.Get { key = "b" }) ];
    ]
  in
  let scenario = { Faults.Scenario.name = "none"; events = [] } in
  let o = scripted ~seed:3L scenario script in
  check "completed" true o.Workload.Chaos.completed;
  check_int "every op recorded" 4 (List.length o.Workload.Chaos.record);
  check "every op answered" true
    (List.for_all
       (fun (r : Workload.Chaos.recorded) -> r.r_reply <> None)
       o.Workload.Chaos.record);
  check "record sorted by invocation" true
    (let rec sorted = function
       | (a : Workload.Chaos.recorded) :: (b : Workload.Chaos.recorded) :: rest
         ->
         (a.r_invoked, a.r_proc) <= (b.r_invoked, b.r_proc)
         && sorted (b :: rest)
       | _ -> true
     in
     sorted o.Workload.Chaos.record);
  let verdict = Workload.Chaos.verdict o in
  check "fault-free run conformant" true (verdict = Workload.Chaos.Pass)

let scripted_run_deterministic () =
  let script =
    [ [ op 0 1 (Apps.Kv_store.Put { key = "a"; value = "x" }) ] ]
  in
  let scenario = Faults.Scenario.crash_leader ~n:3 in
  let r () = scripted ~seed:9L scenario script in
  check "same seed, same record" true
    ((r ()).Workload.Chaos.record = (r ()).Workload.Chaos.record)

let crash_leader_scripted_conformant () =
  let history =
    Modelcheck.History.generate ~clients:2 ~ops_per_client:6 ~think_max:4_000_000
      (Sim.Rng.create 17L)
  in
  let r =
    Modelcheck.Shrink.run
      (script_spec ~seed:17L (Faults.Scenario.crash_leader ~n:3) history)
  in
  check "conformant across fail-over" true
    (r.Modelcheck.Shrink.verdict = Workload.Chaos.Pass)

let sharded_windowed_script =
  Modelcheck.History.generate ~clients:3 ~ops_per_client:8 (Sim.Rng.create 5L)

let sharded_windowed_spec =
  {
    (script_spec ~seed:5L (Faults.Scenario.crash_leader ~n:3) sharded_windowed_script) with
    config = Serving.Surface.config ~batch:8 ~doorbell:4;
    shards = 2;
  }

(* The first model check outside the default configuration: a generated
   history on two windowed shards (batches of 8, doorbell groups of 4)
   through a leader crash on shard 0. It must conform to the KV model;
   with the lost-put bug injected it must not, and the outcome must carry
   a linearizability witness. *)
let sharded_windowed_script_judged () =
  let script = sharded_windowed_script in
  let run inject = (Modelcheck.Shrink.run { sharded_windowed_spec with inject }).outcome in
  let shards =
    List.concat_map
      (List.map (fun op ->
           match op.Workload.Chaos.s_cmd with
           | Apps.Kv_store.Get { key } | Put { key; _ } | Delete { key } ->
             Mu.Sharded.key_hash key mod 2))
      script
  in
  check "history spans both shards" true (List.mem 0 shards && List.mem 1 shards);
  let o = run 0 in
  check "clean run passes" true (Workload.Chaos.passed o);
  check "clean run conformant" true
    (Workload.Chaos.verdict o = Workload.Chaos.Pass);
  let bad = run 3 in
  check "lost put not conformant" true
    (Workload.Chaos.verdict bad = Workload.Chaos.Not_conformant);
  check "lost put has a linearizability witness" true (bad.Workload.Chaos.witness <> None)

let rejoin_survives_minority_self_claimant () =
  (* Regression for a liveness bug this harness found: an isolated
     minority replica elects itself and keeps the Leader role forever
     (nothing heals the partition), so [serving_leader] saw two running
     claimants and returned [None] — starving a concurrent rejoin until
     the harness gave up, with the restored log stuck at applied=0 <
     fuo=1 over a recycled slot ("hole below the FUO"). The minimized
     bundle is embedded verbatim; the run must now pass, with replica 1
     reaching parity. *)
  let bundle_json =
    {|{"schema":"mu-verify-repro/1","seed":"-4476619285473380616","n":5,"inject":0,"scenario":{"name":"random-4","events":[{"at":5086597,"action":"partition","a":[3],"b":[0,1,2,4]},{"at":25057667,"action":"stop_process","pid":1},{"at":29714380,"action":"restart","pid":1}]},"history":[[{"think":793592,"req":1,"cmd":{"op":"put","key":"b","value":"v1.1"}}]],"verdict":"invariant-violation"}|}
  in
  match Modelcheck.Repro.of_string bundle_json with
  | Error e -> Alcotest.fail e
  | Ok { b_spec; _ } ->
    let r = Modelcheck.Shrink.run b_spec in
    check "run passes" true
      (r.Modelcheck.Shrink.verdict = Workload.Chaos.Pass);
    check_int "replica 1 rejoined" 1
      (List.length r.Modelcheck.Shrink.outcome.Workload.Chaos.rejoins)

(* --- sweep, injected bug, shrinking ---------------------------------------- *)

let fault_free_like_sweep_passes () =
  let report =
    Modelcheck.Verify.sweep ~cases:4 ~ns:[ 3 ]
      ~traffic:(Scripted { clients = 2; ops_per_client = 5 })
      ~seed:23L ()
  in
  check_int "all cases pass" 0 report.Modelcheck.Verify.failed;
  check "no bundle emitted" true (report.Modelcheck.Verify.minimized = None);
  check_int "coverage covers every case" 4
    report.Modelcheck.Verify.coverage.Faults.Scenario.scenarios;
  check "op mix recorded" true
    (Option.map (fun s -> s.Modelcheck.History.h_ops) report.Modelcheck.Verify.op_stats
    = Some (4 * 2 * 5))

let injected_bug_caught_and_shrunk () =
  (* The self-test (DESIGN.md §19): with every 3rd Put silently lost by
     all replicas, invariants stay green but a generated case must catch
     the stale read and shrink to a tiny repro. *)
  let report =
    Modelcheck.Verify.sweep ~cases:3 ~ns:[ 3 ]
      ~traffic:(Scripted { clients = 2; ops_per_client = 6 })
      ~inject:3 ~budget:600 ~seed:41L ()
  in
  check "bug caught" true (report.Modelcheck.Verify.failed > 0);
  match report.Modelcheck.Verify.minimized with
  | None -> Alcotest.fail "no minimized bundle"
  | Some (bundle, shrunk) ->
    check "shrink reached fixpoint" false shrunk.Modelcheck.Shrink.exhausted;
    check "minimized still fails" true
      (bundle.Modelcheck.Repro.b_verdict <> Workload.Chaos.Pass);
    let t = bundle.Modelcheck.Repro.b_spec in
    check "<= 6 ops" true (Modelcheck.Shrink.ops t <= 6);
    check "<= 2 fault actions" true
      (List.length t.scenario.Faults.Scenario.events <= 2);
    (* Re-running the minimized spec independently still fails. *)
    check_int "spec carries the injection" 3 t.inject;
    let r = Modelcheck.Shrink.run t in
    check "independent rerun fails" true
      (r.Modelcheck.Shrink.verdict <> Workload.Chaos.Pass)

let shrink_deterministic () =
  (* Same failing spec, shrunk twice, must yield byte-identical
     bundles. *)
  let go () =
    let report =
      Modelcheck.Verify.sweep ~cases:1 ~ns:[ 3 ]
        ~traffic:(Scripted { clients = 2; ops_per_client = 6 })
        ~inject:1 ~budget:600 ~seed:7L ()
    in
    match report.Modelcheck.Verify.minimized with
    | Some (bundle, _) -> Modelcheck.Repro.to_string bundle
    | None -> Alcotest.fail "expected a failure with inject=1"
  in
  check_str "same minimized bundle" (go ()) (go ())

let passing_spec_rejected_by_shrinker () =
  let t =
    script_spec ~seed:5L
      { Faults.Scenario.name = "none"; events = [] }
      [ [ op 0 1 (Apps.Kv_store.Put { key = "a"; value = "x" }) ] ]
  in
  let r = Modelcheck.Shrink.run t in
  check "spec passes" true (r.Modelcheck.Shrink.verdict = Workload.Chaos.Pass);
  check "shrinker refuses passing spec" true
    (try
       ignore (Modelcheck.Shrink.shrink t r);
       false
     with Invalid_argument _ -> true)

(* --- repro bundle codec ---------------------------------------------------- *)

let sample_bundle () =
  {
    Modelcheck.Repro.b_spec =
      {
        (script_spec ~seed:(-3721L) (Faults.Scenario.kill_restart ~n:3)
           [
             [
               op 0 1 (Apps.Kv_store.Put { key = "a"; value = "v1.1" });
               op 250_000 2 (Apps.Kv_store.Get { key = "a" });
             ];
             [ op 10 1 (Apps.Kv_store.Delete { key = "b" }) ];
           ])
        with
        inject = 3;
      };
    b_verdict = Workload.Chaos.Not_conformant;
  }

let repro_roundtrip () =
  let b = sample_bundle () in
  let s = Modelcheck.Repro.to_string b in
  match Modelcheck.Repro.of_string s with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok b' ->
    check "structural roundtrip" true (b = b');
    check_str "byte-stable reprint" s (Modelcheck.Repro.to_string b');
    check "rejects unknown schema" true
      (Result.is_error
         (Modelcheck.Repro.of_string {|{"schema":"mu-verify-repro/999"}|}));
    match Json.of_string s with
    | Ok (Json.Obj fields) ->
      List.iter
        (fun k ->
          let doc = Json.to_string (Json.Obj (List.remove_assoc k fields)) in
          check ("rejects missing " ^ k) true (Result.is_error (Modelcheck.Repro.of_string doc)))
        [ "seed"; "scenario"; "inject"; "verdict" ];
      (* Without a script, the bundle replays the spec's random clients. *)
      let doc = Json.to_string (Json.Obj (List.remove_assoc "script" fields)) in
      check "no script reads as random clients" true
        (match Modelcheck.Repro.of_string doc with
        | Ok { b_spec = { clients = Random _; _ }; _ } -> true
        | _ -> false)
    | _ -> Alcotest.fail "bundle is not an object"

let read_golden ?(file = "verify_repro.json") () =
  let ic = open_in_bin (Filename.concat "golden" file) in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let repro_golden_byte_stable () =
  (* The committed bundle must parse and re-print to the identical bytes:
     any codec drift breaks the byte-compare replay of old repros. *)
  let s = read_golden () in
  match Modelcheck.Repro.of_string s with
  | Error e -> Alcotest.failf "golden bundle does not parse: %s" e
  | Ok b -> check_str "golden bytes stable" s (Modelcheck.Repro.to_string b)

let replay_reemits_bundle () =
  let report =
    Modelcheck.Verify.sweep ~cases:1 ~ns:[ 3 ]
      ~traffic:(Scripted { clients = 2; ops_per_client = 6 })
      ~inject:1 ~budget:600 ~seed:7L ()
  in
  match report.Modelcheck.Verify.minimized with
  | None -> Alcotest.fail "expected a failure with inject=1"
  | Some (bundle, _) ->
    let r, bytes = Modelcheck.Verify.replay bundle in
    check "replay verdict matches" true
      (r.Modelcheck.Shrink.verdict = bundle.Modelcheck.Repro.b_verdict);
    check_str "replay re-emits byte-identical bundle"
      (Modelcheck.Repro.to_string bundle)
      bytes

(* --- coverage -------------------------------------------------------------- *)

let sweep_coverage_no_silent_gaps () =
  let c =
    Faults.Scenario.coverage
      [
        Faults.Scenario.crash_leader ~n:3;
        Faults.Scenario.partition_leader ~n:3;
        Faults.Scenario.kill_restart ~n:3;
      ]
  in
  check_int "scenarios counted" 3 c.Faults.Scenario.scenarios;
  (* Every action kind is present, exercised or not. *)
  check_int "all kinds listed" 13 (List.length c.Faults.Scenario.action_counts);
  check "zeros are explicit" true
    (List.exists (fun (_, n) -> n = 0) c.Faults.Scenario.action_counts);
  check "partition shape recorded" true
    (List.mem_assoc "1|2" c.Faults.Scenario.partition_shapes);
  check_int "one crash" 1 c.Faults.Scenario.crashes;
  check_int "one restart" 1 c.Faults.Scenario.restarts;
  check "restart fraction" true (Faults.Scenario.restart_fraction c = 1.0);
  (* The printed block: a header, one line per kind, shapes, fraction. *)
  let lines = String.split_on_char '\n' (Fmt.str "%a" Faults.Scenario.pp_coverage c) in
  check_int "one line per kind" (1 + 13 + 2) (List.length lines);
  check_str "header alone" "coverage over 3 scenario(s):" (List.hd lines)

(* The chaos sweep (the specs' own random clients) reports the fault mix
   it generated, and no op mix: its clients draw their ops at run time. *)
let chaos_sweep_reports_coverage () =
  let r = Modelcheck.Verify.sweep ~cases:2 ~ns:[ 3 ] ~traffic:Spec_clients ~seed:3L () in
  check_int "coverage spans the sweep" 2 r.coverage.Faults.Scenario.scenarios;
  check_int "sweep ran" 2 r.cases;
  check "no op mix" true (r.op_stats = None)

(* --- verify sweeps end to end ------------------------------------------------ *)

(* The CLI's default sweep, [mu_demo verify --cases 20 --ns 3,5 --seed 7]. *)
let verify_clean_sweep () =
  let report = Modelcheck.Verify.sweep ~cases:20 ~ns:[ 3; 5 ] ~seed:7L () in
  check_int "20/20 conformant" 0 report.Modelcheck.Verify.failed;
  check_int "cases" 20 report.Modelcheck.Verify.cases

(* [mu_demo verify --cases 4 --ns 3 --seed 7 --inject-lose-put 3]
   minimizes to the committed golden bundle, in a fixed number of reruns. *)
let verify_injected_sweep_golden () =
  let report = Modelcheck.Verify.sweep ~cases:4 ~ns:[ 3 ] ~inject:3 ~seed:7L () in
  match report.Modelcheck.Verify.minimized with
  | None -> Alcotest.fail "injected bug not caught"
  | Some (bundle, shrunk) ->
    check_str "golden bytes" (read_golden ()) (Modelcheck.Repro.to_string bundle);
    check_int "reruns" 44 shrunk.Modelcheck.Shrink.reruns

let verify_replay_golden () =
  let s = read_golden () in
  match Modelcheck.Repro.of_string s with
  | Error e -> Alcotest.failf "golden bundle does not parse: %s" e
  | Ok b ->
    let r, bytes = Modelcheck.Verify.replay b in
    check "verdict reproduces" true (r.Modelcheck.Shrink.verdict = b.Modelcheck.Repro.b_verdict);
    check_str "re-emitted bytes" s bytes

(* Bugs the default-config sweep found, shrunk by [mu_demo verify --cases
   50 --seed S --repro F]. Each replays to its current verdict and bytes
   until its fix lands, when it flips to [pass]. *)
let replay_found_bug file verdict =
  let s = read_golden ~file () in
  match Modelcheck.Repro.of_string s with
  | Error e -> Alcotest.failf "%s does not parse: %s" file e
  | Ok b ->
    let r, bytes = Modelcheck.Verify.replay b in
    check "verdict reproduces" true (r.Modelcheck.Shrink.verdict = verdict);
    check_str "re-emitted bytes" s bytes

(* Seeds 42 and 19: a client's retransmitted request, overtaken by its
   next one across a pause/resume of the old leader, was committed late
   and ran a second time (seed 42: deletes of a put key answer
   [not_found]; seed 19: a stale delete undoes a later put). Sessions are
   monotone now (a request id at or below the client's last is a
   duplicate), so both replay as [pass].
   Seed 3 (n = 5) and seed 7's case 19 (n = 5, [verify --cases 20 --ns
   3,5 --seed 7]): a replica restarted with a durable FUO above slots the
   recycler had zeroed took its checkpoint from a follower behind that
   FUO, and its rejoin fiber then applied a recycled slot (Lemma A.11's
   guard). A restarted replica's FUO now stops at its first missing
   entry, at restore and after a checkpoint, and catch-up pulls the
   rest, so both replay as [pass]. Case 19's shrunk scenario leaves the
   link between replicas 0 and 3 blocked, so it is out of the fault
   model. *)
let golden_passes file () = replay_found_bug file Workload.Chaos.Pass

(* Most specific first: non-conformance, invariant violation, crash,
   stall. *)
let judge_ranks_verdicts () =
  let o =
    scripted ~seed:3L { Faults.Scenario.name = "none"; events = [] }
      [ [ op 0 1 (Apps.Kv_store.Get { key = "a" }) ] ]
  in
  let judge o = Workload.Chaos.verdict_to_string (Workload.Chaos.verdict o) in
  check_str "clean" "pass" (judge o);
  let stalled = { o with Workload.Chaos.completed = false } in
  check_str "stall" "stall" (judge stalled);
  let crashed = { stalled with crash = Some "f: Failure(\"x\")" } in
  check_str "crash before stall" "crash" (judge crashed);
  check "crash alone fails the run" false (Workload.Chaos.passed { o with crash = crashed.crash });
  let violated =
    { crashed with violations = [ { Mu.Invariants.replica = 0; index = None; message = "m" } ] }
  in
  check_str "invariant violation before crash" "invariant-violation" (judge violated);
  let bad_read =
    {
      (List.hd o.record) with
      Workload.Chaos.r_reply = Some (Apps.Kv_store.Value "never-put");
    }
  in
  check_str "non-conformance first" "not-conformant"
    (judge { violated with witness = Workload.Chaos.witness [ bad_read ] })

(* Shrinking a spec keeps what it does not shrink: the two windowed shards
   of [sharded windowed script judged] survive into the bundle, which
   replays and reads back as the same chaos spec. *)
let shrink_keeps_spec_fields () =
  let spec = { sharded_windowed_spec with inject = 3 } in
  let r = Modelcheck.Shrink.run spec in
  check "start fails" true (r.Modelcheck.Shrink.verdict <> Workload.Chaos.Pass);
  let shrunk = Modelcheck.Shrink.shrink spec r in
  let m = shrunk.Modelcheck.Shrink.minimized in
  check "shrunk still fails"
    true
    (shrunk.Modelcheck.Shrink.final.Modelcheck.Shrink.verdict <> Workload.Chaos.Pass);
  check "fewer ops" true (Modelcheck.Shrink.ops m < Modelcheck.Shrink.ops spec);
  check_int "shards kept" 2 m.shards;
  check "windowed config kept" true (m.config = spec.config);
  let b =
    {
      Modelcheck.Repro.b_spec = m;
      b_verdict = shrunk.Modelcheck.Shrink.final.Modelcheck.Shrink.verdict;
    }
  in
  let s = Modelcheck.Repro.to_string b in
  (match Modelcheck.Repro.of_string s with
  | Error e -> Alcotest.failf "bundle does not parse: %s" e
  | Ok b' ->
    check "bundle parses to itself" true (b' = b);
    check_str "bundle reprints" s (Modelcheck.Repro.to_string b'));
  let r', bytes = Modelcheck.Verify.replay b in
  check "replays to the same verdict" true (r'.Modelcheck.Shrink.verdict = b.b_verdict);
  check_str "replay re-emits the bundle" s bytes

(* [verify_repro.json] as written before the five config fields that
   are now constants (the straggler grace, the replayer poll, the
   rejoin batch and idle, the durable namespace) left [Mu.Config.t].
   Those keys read as unknown and are ignored, so such a bundle still
   replays to its verdict and re-emits as today's golden. *)
let bundle_with_removed_config_keys =
  {|{"schema":"mu-verify-repro/2","seed":"7191089600892374487","n":3,"log_slots":4096,"value_cap":1024,"attach":"standalone","max_batch":1,"max_outstanding":1,"grow_followers_grace":100000,"recycle_interval":1000000,"recycle_slack":64,"fate_sharing":false,"fate_sharing_stuck_after":10000000,"replayer_poll":1000,"disable_omit_prepare":false,"checksum_canary":false,"persistent_log":false,"durable_state":true,"queue_limit":0,"rejoin_batch":64,"rejoin_idle":20000,"doorbell":1,"durable_ns":0,"shards":1,"horizon":2000000000,"script":[[{"think":1580266,"req":1,"cmd":{"op":"put","key":"a","value":"v2.1"}},{"think":847933,"req":2,"cmd":{"op":"put","key":"c","value":"v2.2"}},{"think":1968191,"req":5,"cmd":{"op":"put","key":"b","value":"v2.5"}},{"think":505268,"req":6,"cmd":{"op":"get","key":"b"}}]],"scenario":{"name":"random-2","events":[]},"inject":3,"verdict":"not-conformant"}|}

let old_bundle_replays_to_golden () =
  let s = bundle_with_removed_config_keys in
  match Modelcheck.Repro.of_string s with
  | Error e -> Alcotest.failf "old bundle does not parse: %s" e
  | Ok b ->
    let r, bytes = Modelcheck.Verify.replay b in
    check "verdict reproduces" true (r.Modelcheck.Shrink.verdict = b.Modelcheck.Repro.b_verdict);
    check_str "recorded verdict" "not-conformant"
      (Workload.Chaos.verdict_to_string b.Modelcheck.Repro.b_verdict);
    check_str "re-emits the golden" (read_golden ()) bytes

(* Isolation follows from linearizability: a read of a value never put to
   its key (here put to another key) fits no state of the per-key model. *)
let foreign_read_has_witness () =
  let r ~proc ~at cmd reply =
    {
      Workload.Chaos.r_proc = proc;
      r_req = 1;
      r_invoked = at;
      r_responded = at + 10;
      r_cmd = cmd;
      r_reply = Some reply;
    }
  in
  let history =
    [
      r ~proc:1 ~at:0 (Apps.Kv_store.Put { key = "b"; value = "x" }) Apps.Kv_store.Stored;
      r ~proc:2 ~at:100 (Apps.Kv_store.Get { key = "a" }) (Apps.Kv_store.Value "x");
    ]
  in
  match Workload.Chaos.witness history with
  | None -> Alcotest.fail "foreign read judged linearizable"
  | Some w -> check_str "witness key" "a" w.Workload.Chaos.wkey

(* With no client fiber, a run quiesces at once and is judged on its
   own: no stall. *)
let run_without_clients_passes () =
  let sc = Faults.Scenario.crash_leader ~n:3 in
  List.iter
    (fun clients ->
      let o = Workload.Chaos.run { (Workload.Chaos.spec ~seed:4L ~n:3 sc) with clients } in
      check_str "verdict" "pass" (Workload.Chaos.verdict_to_string (Workload.Chaos.verdict o));
      check_int "no ops" 0 o.ops)
    [ Script []; Random { clients = 0; ops = 25; think = 0 } ]

(* The chaos sweep shrinks its first failure like verify does: random
   clients with the lost-put bug injected fail, and the bundle replays to
   its recorded verdict, byte for byte. *)
let random_sweep_shrinks_to_bundle () =
  let r =
    Modelcheck.Verify.sweep ~cases:1 ~ns:[ 3 ] ~inject:3 ~traffic:Spec_clients ~seed:42L ()
  in
  match r.minimized with
  | None -> Alcotest.fail "injected bug not caught"
  | Some (b, _) ->
    check "random clients kept" true
      (match b.b_spec.clients with Random _ -> true | Script _ -> false);
    check "fails" true (b.b_verdict <> Workload.Chaos.Pass);
    let bytes = Modelcheck.Repro.to_string b in
    let r', bytes' = Modelcheck.Verify.replay b in
    check "verdict reproduces" true (r'.verdict = b.b_verdict);
    check_str "re-emitted bytes" bytes bytes'

let suite =
  [
    ("kv model semantics", `Quick, kv_model_semantics);
    ("book model matches engine", `Quick, book_model_matches_engine);
    ("book model replace rules", `Quick, book_model_replace_rules);
    ("history generator", `Quick, history_deterministic_and_mixed);
    ("conformance: sequential pass", `Quick, conformance_sequential_pass);
    ("conformance: lost update caught", `Quick, conformance_catches_lost_update);
    ("conformance: delete reply semantics", `Quick, conformance_delete_reply_semantics);
    ("conformance: concurrency flexible", `Quick, conformance_concurrency_flexible);
    ("conformance: pending write harmless", `Quick, conformance_pending_write_harmless);
    ("lin witness: minimal counterexample", `Quick, witness_minimal_counterexample);
    ("lin witness: erase semantics", `Quick, witness_erase_semantics);
    ("scripted run records replies", `Quick, scripted_run_records_replies);
    ("scripted run deterministic", `Quick, scripted_run_deterministic);
    ("crash-leader scripted conformant", `Quick, crash_leader_scripted_conformant);
    ("sharded windowed script judged", `Quick, sharded_windowed_script_judged);
    ("rejoin survives minority self-claimant", `Quick,
      rejoin_survives_minority_self_claimant);
    ("fault-free sweep passes", `Quick, fault_free_like_sweep_passes);
    ("injected bug caught and shrunk", `Slow, injected_bug_caught_and_shrunk);
    ("shrink deterministic", `Slow, shrink_deterministic);
    ("passing triple rejected by shrinker", `Quick, passing_spec_rejected_by_shrinker);
    ("repro roundtrip", `Quick, repro_roundtrip);
    ("repro golden byte stable", `Quick, repro_golden_byte_stable);
    ("replay re-emits bundle", `Slow, replay_reemits_bundle);
    ("scenario coverage explicit", `Quick, sweep_coverage_no_silent_gaps);
    ("chaos sweep coverage", `Quick, chaos_sweep_reports_coverage);
    ("verify sweep: clean 20 cases", `Quick, verify_clean_sweep);
    ("verify sweep: injected to golden", `Quick, verify_injected_sweep_golden);
    ("verify replay: golden bytes", `Quick, verify_replay_golden);
    ("shrink keeps spec fields", `Quick, shrink_keeps_spec_fields);
    ("golden: seed 42 passes", `Quick, golden_passes "verify_seed42.json");
    ("golden: seed 3 passes", `Quick, golden_passes "verify_seed3.json");
    ("judge ranks verdicts", `Quick, judge_ranks_verdicts);
    ("old bundle replays to golden", `Quick, old_bundle_replays_to_golden);
    ("foreign read has a witness", `Quick, foreign_read_has_witness);
    ("run without clients passes", `Quick, run_without_clients_passes);
    ("random-client sweep shrinks to a bundle", `Quick, random_sweep_shrinks_to_bundle);
    ("golden: seed 19 passes", `Quick, golden_passes "verify_seed19.json");
    ("golden: seed 7 case 19 passes", `Quick, golden_passes "verify_seed7_case19.json");
    ("golden: seed 14 case 36 passes", `Quick, golden_passes "verify_seed14_case36.json");
    ("golden: seed 13 case 7 passes", `Quick, golden_passes "verify_seed13_case7.json");
  ]

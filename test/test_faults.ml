(* Tests for the fault-injection subsystem (lib/faults) and the chaos
   harness: scenario JSON round-trips, validation, the named library, the
   randomized generator's safety properties, and the determinism guarantee
   (same seed + scenario => byte-identical traces). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A scenario exercising every action constructor. *)
let kitchen_sink : Faults.Scenario.t =
  {
    Faults.Scenario.name = "kitchen-sink";
    events =
      [
        { at = 1_000_000; action = Faults.Scenario.Pause 1 };
        { at = 2_000_000; action = Faults.Scenario.Resume 1 };
        { at = 3_000_000; action = Faults.Scenario.Stop_process 2 };
        { at = 4_000_000; action = Faults.Scenario.Kill_host 2 };
        { at = 5_000_000; action = Faults.Scenario.Partition ([ 0 ], [ 1; 2 ]) };
        { at = 6_000_000; action = Faults.Scenario.Block { src = 0; dst = 1 } };
        { at = 7_000_000; action = Faults.Scenario.Unblock { src = 0; dst = 1 } };
        { at = 8_000_000; action = Faults.Scenario.Delay { src = 1; dst = 0; ns = 5_000 } };
        { at = 9_000_000; action = Faults.Scenario.Loss { src = 0; dst = 2; p = 0.25 } };
        { at = 10_000_000; action = Faults.Scenario.Dup { src = 2; dst = 0; p = 0.1 } };
        { at = 11_000_000; action = Faults.Scenario.Heal };
        { at = 12_000_000; action = Faults.Scenario.Perm_fail { pid = 0; forced = true } };
        { at = 13_000_000; action = Faults.Scenario.Perm_fail { pid = 0; forced = false } };
        { at = 14_000_000; action = Faults.Scenario.Restart 2 };
      ];
  }

let json_round_trip () =
  let s = Faults.Scenario.to_string kitchen_sink in
  match Faults.Scenario.of_string s with
  | Error m -> Alcotest.fail m
  | Ok back ->
    check "round-trips structurally" true (back = kitchen_sink);
    (* Printing is deterministic: a second trip yields identical bytes. *)
    Alcotest.(check string) "stable bytes" s (Faults.Scenario.to_string back)

let json_rejects_garbage () =
  let bad s =
    match Faults.Scenario.of_string s with Error _ -> true | Ok _ -> false
  in
  check "not json" true (bad "{nope");
  check "not an object" true (bad "[1,2]");
  check "missing events" true (bad {|{"name":"x"}|});
  check "unknown action" true
    (bad {|{"name":"x","events":[{"at":1,"action":"explode","pid":0}]}|});
  check "missing pid" true (bad {|{"name":"x","events":[{"at":1,"action":"pause"}]}|})

let validation_catches_bad_scenarios () =
  let invalid (s : Faults.Scenario.t) =
    match Faults.Scenario.validate ~n:3 s with Error _ -> true | Ok () -> false
  in
  check "pid out of range" true
    (invalid
       { name = "bad"; events = [ { at = 1; action = Faults.Scenario.Pause 7 } ] });
  check "negative time" true
    (invalid
       { name = "bad"; events = [ { at = -1; action = Faults.Scenario.Heal } ] });
  check "self loop" true
    (invalid
       {
         name = "bad";
         events = [ { at = 1; action = Faults.Scenario.Block { src = 1; dst = 1 } } ];
       });
  check "probability > 1" true
    (invalid
       {
         name = "bad";
         events =
           [ { at = 1; action = Faults.Scenario.Loss { src = 0; dst = 1; p = 1.5 } } ];
       });
  check "kitchen sink is valid" true
    (match Faults.Scenario.validate ~n:3 kitchen_sink with Ok () -> true | Error _ -> false)

(* Stop-vs-kill-vs-restart: restart is only valid for a host the schedule
   has already taken down (stop_process or kill_host), tracked in firing
   order — a restart of a running host is a scenario bug, caught up
   front rather than silently ignored at injection time. *)
let restart_validation () =
  let valid events =
    match Faults.Scenario.validate ~n:3 { name = "r"; events } with
    | Ok () -> true
    | Error _ -> false
  in
  check "restart after kill" true
    (valid
       [
         { at = 1; action = Faults.Scenario.Kill_host 1 };
         { at = 2; action = Faults.Scenario.Restart 1 };
       ]);
  check "restart after stop" true
    (valid
       [
         { at = 1; action = Faults.Scenario.Stop_process 2 };
         { at = 2; action = Faults.Scenario.Restart 2 };
       ]);
  check "down-restart cycle can repeat" true
    (valid
       [
         { at = 1; action = Faults.Scenario.Kill_host 1 };
         { at = 2; action = Faults.Scenario.Restart 1 };
         { at = 3; action = Faults.Scenario.Stop_process 1 };
         { at = 4; action = Faults.Scenario.Restart 1 };
       ]);
  check "restart of never-downed host rejected" false
    (valid [ { at = 1; action = Faults.Scenario.Restart 0 } ]);
  check "restart of a different host rejected" false
    (valid
       [
         { at = 1; action = Faults.Scenario.Kill_host 1 };
         { at = 2; action = Faults.Scenario.Restart 2 };
       ]);
  check "double restart without re-down rejected" false
    (valid
       [
         { at = 1; action = Faults.Scenario.Kill_host 1 };
         { at = 2; action = Faults.Scenario.Restart 1 };
         { at = 3; action = Faults.Scenario.Restart 1 };
       ]);
  (* Firing order, not listing order: the restart scheduled before its
     kill is rejected even when listed after it. *)
  check "restart scheduled before the kill rejected" false
    (valid
       [
         { at = 5; action = Faults.Scenario.Kill_host 1 };
         { at = 2; action = Faults.Scenario.Restart 1 };
       ])

let named_scenarios_resolve () =
  check "crash-leader" true (Faults.Scenario.by_name ~n:3 "crash-leader" <> None);
  check "partition-leader" true (Faults.Scenario.by_name ~n:3 "partition-leader" <> None);
  check "lossy-fabric" true (Faults.Scenario.by_name ~n:5 "lossy-fabric" <> None);
  check "kill-restart" true (Faults.Scenario.by_name ~n:3 "kill-restart" <> None);
  check "unknown" true (Faults.Scenario.by_name ~n:3 "meteor-strike" = None);
  List.iter
    (fun name ->
      match Faults.Scenario.by_name ~n:3 name with
      | None -> Alcotest.fail ("named scenario vanished: " ^ name)
      | Some s -> (
        match Faults.Scenario.validate ~n:3 s with
        | Ok () -> ()
        | Error m -> Alcotest.fail (name ^ ": " ^ m)))
    Faults.Scenario.named

(* Generated scenarios must always be valid and liveness-safe enough for
   the sweep: every event inside the horizon, and permanent crashes
   bounded by the minority budget (a majority must survive). *)
let generator_produces_valid_scenarios () =
  List.iter
    (fun seed ->
      List.iter
        (fun n ->
          let s =
            Faults.Scenario.generate (Sim.Rng.create seed) ~n ~horizon:40_000_000
          in
          (match Faults.Scenario.validate ~n s with
          | Ok () -> ()
          | Error m -> Alcotest.fail (Printf.sprintf "seed %Ld n %d: %s" seed n m));
          (* A restarted host hands its crash-budget slot back, so the
             liveness bound is on *concurrently* down hosts, walked in
             firing order — not on the total count of stop/kill events. *)
          let sorted =
            List.stable_sort
              (fun a b -> compare a.Faults.Scenario.at b.Faults.Scenario.at)
              s.Faults.Scenario.events
          in
          let max_down, _ =
            List.fold_left
              (fun (mx, down) { Faults.Scenario.action; _ } ->
                match action with
                | Faults.Scenario.Stop_process _ | Faults.Scenario.Kill_host _ ->
                  (max mx (down + 1), down + 1)
                | Faults.Scenario.Restart _ -> (mx, down - 1)
                | _ -> (mx, down))
              (0, 0) sorted
          in
          check "concurrent crashes within minority budget" true
            (max_down <= (n - 1) / 2);
          List.iter
            (fun { Faults.Scenario.at; _ } ->
              check "event inside horizon" true (at >= 0 && at <= 40_000_000))
            s.Faults.Scenario.events)
        [ 1; 2; 3; 5 ])
    [ 1L; 2L; 3L; 42L; -7L; 123456789L ]

module Chaos = Workload.Chaos

let named = Util.chaos_named
let traced = Util.chaos_traced
let sharded = Util.chaos_sharded

(* The tentpole guarantee: the same seed and scenario replay to the byte.
   Two full chaos runs (cluster + clients + injected faults) must emit
   identical traces; a different seed must not. *)
let chaos_run_is_deterministic () =
  let o1, t1 = traced (named ~n:3 ~seed:7L "crash-leader") in
  let o2, t2 = traced (named ~n:3 ~seed:7L "crash-leader") in
  Alcotest.(check string) "same seed, identical trace bytes" t1 t2;
  check "same outcome" true (Chaos.passed o1 = Chaos.passed o2);
  check_int "same op count" o1.Chaos.ops o2.Chaos.ops;
  let _, t3 = traced (named ~n:3 ~seed:8L "crash-leader") in
  check "different seed diverges" true (t1 <> t3)

(* The chaos table: every row runs twice through [Util.chaos_row]. *)
let chaos_table_double_runs_pass () =
  List.iter
    (fun name ->
      Util.chaos_row (named ~n:3 ~seed:7L name);
      Util.chaos_row (named ~n:5 ~seed:11L name))
    [ "crash-leader"; "partition-leader"; "lossy-fabric" ]

(* Fast-forwarded sleeps are the same execution: every row of the chaos
   table, run bare (sleeps continue in place) and with a probe sink
   attached (every sleep takes the timer/wake event pair), gives the
   same outcome text and the same recorded history. *)
let chaos_table_fast_forward_identical () =
  List.iter
    (fun spec ->
      let slow_engine = ref None and fast_engine = ref None in
      let slow =
        Chaos.run
          ~on_engine:(fun e ->
            slow_engine := Some e;
            Sim.Probe.set_sink (Sim.Engine.probe e) ignore)
          spec
      in
      let fast = Chaos.run ~on_engine:(fun e -> fast_engine := Some e) spec in
      let line = Fmt.str "%a" Chaos.pp_outcome slow in
      Alcotest.(check string) "same outcome text" line (Fmt.str "%a" Chaos.pp_outcome fast);
      check (line ^ ": same history") true (slow.Chaos.record = fast.Chaos.record);
      let ff r = Sim.Engine.fast_forwards (Option.get !r) in
      check_int (line ^ ": observed run never fast-forwards") 0 (ff slow_engine);
      check (line ^ ": bare run fast-forwards") true (ff fast_engine > 0))
    (List.concat_map
       (fun name -> [ named ~n:3 ~seed:7L name; named ~n:5 ~seed:11L name ])
       [ "crash-leader"; "partition-leader"; "lossy-fabric" ])

(* Every named scenario at n = 3, seed 11, is a row of the table. *)
let chaos_named_scenarios_pass () =
  List.iter (fun name -> Util.chaos_row (named ~n:3 ~seed:11L name)) Faults.Scenario.named

(* [mu_demo chaos --sweep 20 --seed 42]: the spec's own random clients,
   through the one sweep. *)
let chaos_sweep_passes () =
  let r = Modelcheck.Verify.sweep ~cases:20 ~traffic:Spec_clients ~seed:42L () in
  check_int "runs" 20 r.cases;
  check_int "all pass" 0 r.failed;
  check "no bundle" true (r.minimized = None)

(* A repro bundle replays the exact run it came from: a default
   single-group run (random clients, no script) and a sharded, windowed
   one with non-default clients. *)
let repro_round_trips_and_replays () =
  let windowed =
    {
      (sharded ~config:(Serving.Surface.config ~batch:8 ~doorbell:4) "partition-leader") with
      Chaos.seed = 21L;
    }
  in
  List.iter
    (fun spec ->
      let o = Chaos.run spec in
      let bytes = Modelcheck.Repro.to_string { b_spec = spec; b_verdict = Chaos.verdict o } in
      match Modelcheck.Repro.of_string bytes with
      | Error m -> Alcotest.fail m
      | Ok b ->
        check "spec preserved" true (b.b_spec = spec);
        let r, bytes' = Modelcheck.Verify.replay b in
        check "replay: equal outcome" true (r.outcome = o);
        check_int "replay: same ops" o.Chaos.ops r.outcome.ops;
        Alcotest.(check string) "replay: same bundle" bytes bytes')
    [ named ~n:3 ~seed:21L "partition-leader"; windowed ];
  (* Spec fields that carry only seed, n and scenario read the rest as
     the default spec. *)
  let scenario = Faults.Scenario.partition_leader ~n:5 in
  let spec_of fields =
    Chaos.spec_of_json
      (Json.Obj
         ([ ("seed", Json.Str "9"); ("n", Json.num_of_int 5) ]
         @ fields
         @ [ ("scenario", Faults.Scenario.to_json scenario) ]))
  in
  check "short spec reads as the default spec" true
    (spec_of [] = Ok (Chaos.spec ~seed:9L ~n:5 scenario));
  check "injection rate read" true
    (Result.map (fun (s : Chaos.spec) -> s.inject) (spec_of [ ("inject", Json.num_of_int 3) ])
    = Ok 3);
  check "zero shards rejected" true
    (Result.is_error (spec_of [ ("shards", Json.num_of_int 0) ]));
  check "invalid config rejected" true
    (Result.is_error (spec_of [ ("doorbell", Json.num_of_int 0) ]))

(* A scenario that kills a majority must stall — and the stalled run must
   still be judged safe (no invariant violation, incomplete ops handled)
   rather than crash the harness. *)
let chaos_majority_loss_stalls_safely () =
  let scenario =
    {
      Faults.Scenario.name = "kill-majority";
      events =
        [
          (* Before the cluster can even elect: no majority ever forms. *)
          { at = 1_000; action = Faults.Scenario.Kill_host 0 };
          { at = 1_000; action = Faults.Scenario.Kill_host 1 };
        ];
    }
  in
  let o = Chaos.run { (Chaos.spec ~seed:5L ~n:3 scenario) with horizon = 300_000_000 } in
  check "stalled" true (not o.Chaos.completed);
  check "still linearizable" true (o.Chaos.witness = None);
  check "no invariant violations" true (o.Chaos.violations = [])

let suite =
  [
    ("scenario json round-trip", `Quick, json_round_trip);
    ("scenario json rejects garbage", `Quick, json_rejects_garbage);
    ("scenario validation", `Quick, validation_catches_bad_scenarios);
    ("restart validation (stop/kill state machine)", `Quick, restart_validation);
    ("named scenarios resolve", `Quick, named_scenarios_resolve);
    ("generator produces valid scenarios", `Quick, generator_produces_valid_scenarios);
    ("chaos run deterministic (trace bytes)", `Quick, chaos_run_is_deterministic);
    ("chaos table: double runs pass", `Quick, chaos_table_double_runs_pass);
    ("named scenarios pass chaos", `Quick, chaos_named_scenarios_pass);
    ("chaos sweep seed 42 passes", `Quick, chaos_sweep_passes);
    ("repro round-trips and replays", `Quick, repro_round_trips_and_replays);
    ("majority loss stalls safely", `Quick, chaos_majority_loss_stalls_safely);
    ("chaos table: fast-forward identical", `Quick, chaos_table_fast_forward_identical);
  ]

(* Monitor plane: SLO window arithmetic, rule hysteresis, the online
   evaluator's determinism through chaos, trace neutrality when the
   monitor is off, and the engine's self-cost sampler. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Build the (metric, value) snapshot the sampler would publish: the
   sampled value of a histogram is its cumulative count. *)
let snapshot reg =
  List.map
    (fun (m : Telemetry.Registry.metric) ->
      let v =
        match m.kind with
        | Telemetry.Registry.Counter c ->
          float_of_int (Telemetry.Registry.Counter.value c)
        | Telemetry.Registry.Gauge g ->
          float_of_int (Telemetry.Registry.Gauge.value g)
        | Telemetry.Registry.Histogram h -> float_of_int (Telemetry.Hdr.count h)
      in
      (m, v))
    (Telemetry.Registry.metrics reg)

(* --- Slo ------------------------------------------------------------------ *)

let slo_window_deltas () =
  let reg = Telemetry.Registry.create () in
  let c = Telemetry.Registry.counter reg "ops_total" in
  let g = Telemetry.Registry.gauge reg "depth" in
  let h = Telemetry.Registry.histogram reg "lat_ns" in
  let slo = Monitor.Slo.create () in
  Telemetry.Registry.Counter.add c 10;
  Telemetry.Registry.Gauge.set g 7;
  Telemetry.Hdr.record h 100;
  Telemetry.Hdr.record h 200;
  let w0 = Monitor.Slo.advance slo ~t0:0 ~t1:1_000 (snapshot reg) in
  check_int "first window sees full counter" 10
    (int_of_float (Monitor.Slo.delta w0 "ops_total"));
  check_int "histogram delta is count" 2
    (int_of_float (Monitor.Slo.delta w0 "lat_ns"));
  Alcotest.(check (option int))
    "windowed p100" (Some 200)
    (Monitor.Slo.quantile_ns w0 "lat_ns" 1.0);
  (* second window: only what happened since the first close *)
  Telemetry.Registry.Counter.add c 3;
  Telemetry.Registry.Gauge.set g 2;
  Telemetry.Hdr.record h 5_000;
  let w1 = Monitor.Slo.advance slo ~t0:1_000 ~t1:2_000 (snapshot reg) in
  check_int "counter delta windowed" 3
    (int_of_float (Monitor.Slo.delta w1 "ops_total"));
  check_int "gauge reads current value" 2
    (int_of_float (Option.get (Monitor.Slo.value w1 Monitor.Slo.Max "depth")));
  (match Monitor.Slo.quantile_ns w1 "lat_ns" 0.5 with
  | Some v -> check "second window sees only the new sample" true (v > 4_000)
  | None -> Alcotest.fail "windowed histogram empty");
  check_int "window index increments" 1 (Monitor.Slo.index w1);
  (* rate: 3 ops over 1000 ns = 3e6/s *)
  let r = Monitor.Slo.rate_per_s w1 "ops_total" in
  check "rate per second" true (Float.abs (r -. 3e6) < 1.0)

(* --- Rules ---------------------------------------------------------------- *)

let rules_hysteresis () =
  let reg = Telemetry.Registry.create () in
  let g = Telemetry.Registry.gauge reg "depth" in
  let slo = Monitor.Slo.create () in
  let rule =
    Monitor.Rules.make
      (Monitor.Rules.gauge_above ~name:"depth_high" ~metric:"depth"
         ~agg:Monitor.Slo.Max ~limit:10.0 ~fire_after:2 ~clear_after:2 ())
  in
  let t = ref 0 in
  let step v =
    Telemetry.Registry.Gauge.set g v;
    let t0 = !t in
    t := !t + 1_000;
    Monitor.Rules.step rule
      (Monitor.Slo.advance slo ~t0 ~t1:!t (snapshot reg))
  in
  check "one breach does not fire" true (step 50 = None);
  (match step 50 with
  | Some (`Fire, _) -> ()
  | _ -> Alcotest.fail "second consecutive breach must fire");
  check "firing" true (Monitor.Rules.firing rule);
  check "steady breach is edge-free" true (step 50 = None);
  check "one clean window does not clear" true (step 1 = None);
  (* a breach in between resets the clear counter *)
  check "breach resets clean streak" true (step 50 = None);
  check "clean 1/2" true (step 1 = None);
  (match step 1 with
  | Some (`Clear, _) -> ()
  | _ -> Alcotest.fail "second consecutive clean window must clear");
  check "cleared" false (Monitor.Rules.firing rule)

(* --- Log ------------------------------------------------------------------ *)

let log_json_shape () =
  let log = Monitor.Log.create () in
  let (_ : Monitor.Log.entry) =
    Monitor.Log.add log ~at:100 ~epoch:1 ~window:4 ~rule:"quorum_loss" ~edge:`Fire
      ~detail:"lost \"it\""
  in
  let (_ : Monitor.Log.entry) =
    Monitor.Log.add log ~at:300 ~epoch:1 ~window:6 ~rule:"quorum_loss" ~edge:`Clear
      ~detail:"recovered"
  in
  let (_ : Monitor.Log.entry) =
    Monitor.Log.add log ~at:400 ~epoch:1 ~window:7 ~rule:"rejoin_lag" ~edge:`Fire
      ~detail:"in flight"
  in
  let j = Monitor.Log.to_json log in
  check "schema tag" true (Util.contains_substring j "mu-monitor-log/1");
  check "escaped detail" true (Util.contains_substring j "lost \\\"it\\\"");
  check_int "length" 3 (Monitor.Log.length log);
  Alcotest.(check (list string)) "firing set" [ "rejoin_lag" ] (Monitor.Log.firing log)

(* --- Online through chaos ------------------------------------------------- *)

let run_monitored ?(scenario = "kill-restart") ?(ops = 600) ?(think = 50_000)
    ?(interval = 10_000) seed =
  let scenario = Option.get (Faults.Scenario.by_name ~n:3 scenario) in
  let reg = Telemetry.Registry.create () in
  let sampler = Telemetry.Sampler.create reg ~interval in
  let online = ref None in
  let o =
    Workload.Chaos.run
      ~on_engine:(fun e ->
        Workload.Experiments.attach_sampler sampler e;
        online := Some (Monitor.Online.attach ~window_ns:(2 * interval) e sampler))
      {
        (Workload.Chaos.spec ~seed ~n:3 scenario) with
        clients = Random { clients = 4; ops; think };
      }
  in
  (o, Option.get !online)

let chaos_alert_log_deterministic () =
  let o1, m1 = run_monitored 7L in
  let o2, m2 = run_monitored 7L in
  check "runs pass" true (Workload.Chaos.passed o1 && Workload.Chaos.passed o2);
  check_str "same seed: byte-identical alert log"
    (Monitor.Log.to_json (Monitor.Online.log m1))
    (Monitor.Log.to_json (Monitor.Online.log m2));
  check_int "same seed: same window count" (Monitor.Online.windows m1)
    (Monitor.Online.windows m2);
  let has m rule edge =
    List.exists
      (fun (en : Monitor.Log.entry) -> en.rule = rule && en.edge = edge)
      (Monitor.Log.entries (Monitor.Online.log m))
  in
  (* kill-restart never loses a majority: fail-over and fail-back are
     one hand-off each, with no permission duel between them *)
  check "kill-restart keeps its quorum" false (has m1 "quorum_loss" `Fire);
  (* killing two of three and restarting one does: the alert brackets
     the leader's degraded window. The leader notices only when its
     permission request times out (500 ms), so sample that run at 100 us. *)
  let oq, mq = run_monitored ~scenario:"quorum-loss" ~interval:100_000 7L in
  check "quorum-loss run passes" true (Workload.Chaos.passed oq);
  check "quorum_loss fires" true (has mq "quorum_loss" `Fire);
  check "quorum_loss clears" true (has mq "quorum_loss" `Clear);
  (* a rejoin that pulls a whole outage backlog lags for hundreds of us:
     the watchdog fires while it is in flight and clears at parity *)
  let ob, mb = run_monitored ~scenario:"restart-backlog" 7L in
  check "backlog run passes" true (Workload.Chaos.passed ob);
  check "rejoin_lag fires" true (has mb "rejoin_lag" `Fire);
  check "rejoin_lag clears" true (has mb "rejoin_lag" `Clear);
  (* same property through a partition scenario (smaller run) *)
  let _, p1 = run_monitored ~scenario:"partition-leader" ~ops:150 11L in
  let _, p2 = run_monitored ~scenario:"partition-leader" ~ops:150 11L in
  check_str "partition: byte-identical alert log"
    (Monitor.Log.to_json (Monitor.Online.log p1))
    (Monitor.Log.to_json (Monitor.Online.log p2))

let monitor_off_trace_identical () =
  (* Attaching the monitor must not perturb the simulation: the trace
     with the monitor on, minus its cat="alert" instants, is exactly the
     trace with the monitor off. *)
  let scenario = Option.get (Faults.Scenario.by_name ~n:3 "kill-restart") in
  let run with_monitor =
    let tr = Trace.Tracer.create ~capacity:(1 lsl 19) () in
    let reg = Telemetry.Registry.create () in
    let sampler = Telemetry.Sampler.create reg ~interval:10_000 in
    let on_engine e =
      Trace.Tracer.attach tr e;
      Workload.Experiments.attach_sampler sampler e;
      if with_monitor then
        ignore (Monitor.Online.attach ~window_ns:20_000 e sampler)
    in
    let o =
      Workload.Chaos.run ~on_engine
        {
          (Workload.Chaos.spec ~seed:7L ~n:3 scenario) with
          clients = Random { clients = 4; ops = 150; think = 50_000 };
        }
    in
    (o, tr)
  in
  let o_off, tr_off = run false in
  let o_on, tr_on = run true in
  check_int "no ring drops (off)" 0 (Trace.Tracer.dropped tr_off);
  check_int "no ring drops (on)" 0 (Trace.Tracer.dropped tr_on);
  check_int "same commits" o_off.Workload.Chaos.committed o_on.Workload.Chaos.committed;
  let ev_off = Trace.Tracer.events tr_off in
  let ev_on = Trace.Tracer.events tr_on in
  let alerts, rest =
    List.partition (fun (e : Sim.Probe.event) -> e.cat = "alert") ev_on
  in
  check "monitor emitted alert instants" true (alerts <> []);
  check "monitor-off trace identical modulo alerts" true (rest = ev_off)

(* --- Self-cost sampler ---------------------------------------------------- *)

let overhead_smoke () =
  (* Deterministic fake clock: one second per reading. *)
  let t = ref 0.0 in
  let clock () =
    t := !t +. 1.0;
    !t
  in
  let e = Util.engine () in
  let sc = Sim.Engine.selfcost_create ~clock () in
  Sim.Engine.set_selfcost e sc;
  let fibers = 4 and sleeps = 50 in
  for _ = 1 to fibers do
    Sim.Engine.spawn e (fun () ->
        for _ = 1 to sleeps do
          Sim.Engine.sleep e 10
        done)
  done;
  Sim.Engine.run e;
  check_int "queue drained" 0 (Sim.Engine.pending_events e);
  (* A spawn pushes one event and a sleep two (timer, then resume); the
     drained queue popped every push. *)
  let pushes = fibers * (1 + (2 * sleeps)) in
  let ops, sampled, wall = Sim.Engine.selfcost_queue sc in
  check_int "ops = pushes + pops" (2 * pushes) ops;
  check_int "one op in 64 sampled" (ops / 64) sampled;
  check "wall non-negative" true (wall >= 0.0)

let suite =
  [
    Alcotest.test_case "slo window deltas" `Quick slo_window_deltas;
    Alcotest.test_case "rule hysteresis" `Quick rules_hysteresis;
    Alcotest.test_case "log json shape" `Quick log_json_shape;
    Alcotest.test_case "chaos alert log deterministic" `Quick
      chaos_alert_log_deterministic;
    Alcotest.test_case "monitor-off trace identical" `Quick monitor_off_trace_identical;
    Alcotest.test_case "overhead smoke" `Quick overhead_smoke;
  ]

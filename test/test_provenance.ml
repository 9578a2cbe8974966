(* lib/provenance: span-tree reconstruction from prov events, exact phase
   attribution, byte-deterministic exports, fail-over request forensics, and
   the zero-cost-when-off guarantee. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

module Tree = Provenance.Tree
module An = Provenance.Analyze
module Export = Provenance.Export
module E = Workload.Experiments

(* One provenance-on latency run: tracer + samples + reconstructed tree. *)
let latency_run ?(provenance = true) ?(samples = 40) seed =
  let tr = Trace.Tracer.create ~capacity:(1 lsl 16) () in
  let setup =
    {
      E.default_setup with
      E.seed;
      on_engine =
        Some
          (fun e ->
            Trace.Tracer.attach tr e;
            if provenance then Sim.Engine.set_provenance e true);
    }
  in
  let s = E.mu_replication_latency setup ~samples ~payload:64 ~attach:Mu.Config.Standalone in
  (tr, s, Tree.of_events (Trace.Tracer.events tr))

let chaos_run ?(provenance = true) seed =
  let tr = Trace.Tracer.create ~capacity:(1 lsl 19) () in
  let scenario = Option.get (Faults.Scenario.by_name "crash-leader" ~n:3) in
  let o =
    (* 60 ops x 100 us think stretches each client past the 5 ms crash. *)
    Workload.Chaos.run
      ~on_engine:(fun e ->
        Trace.Tracer.attach tr e;
        if provenance then Sim.Engine.set_provenance e true)
      {
        (Workload.Chaos.spec ~seed ~n:3 scenario) with
        clients = Random { clients = 4; ops = 60; think = 100_000 };
      }
  in
  (tr, o, Tree.of_events (Trace.Tracer.events tr))

(* --- well-formedness ----------------------------------------------------- *)

let tree_well_formed () =
  let _, _, t = latency_run 42L in
  check "non-empty" true (Tree.size t > 0);
  check_int "no dangling refs" 0 t.Tree.dropped;
  (match Tree.check t with
  | [] -> ()
  | vs -> Alcotest.failf "tree violations: %s" (String.concat "; " vs));
  (* Every measured propose produced a closed request span with children. *)
  let reqs = An.requests t in
  check "requests present" true (List.length reqs > 0);
  List.iter
    (fun (r : Tree.span) ->
      check "request closed" false (Tree.is_open r);
      check "request has children" true (r.Tree.children <> []))
    reqs

let chaos_tree_well_formed () =
  let _, _, t = chaos_run 7L in
  check "non-empty" true (Tree.size t > 0);
  (match Tree.check t with
  | [] -> ()
  | vs -> Alcotest.failf "chaos tree violations: %s" (String.concat "; " vs))

(* --- exact phase attribution --------------------------------------------- *)

let phases_sum_exactly () =
  let _, _, t = latency_run 42L in
  List.iter
    (fun (r : Tree.span) ->
      let rows = An.phases t r in
      check_int "phase rows sum to end-to-end latency" (Tree.duration r)
        (An.phase_sum rows))
    (An.requests t);
  (* Outliers are a subset of requests, slowest first. *)
  match An.top_outliers t ~k:3 with
  | a :: b :: _ -> check "sorted slowest-first" true (Tree.duration a >= Tree.duration b)
  | _ -> Alcotest.fail "expected >= 2 outliers"

(* --- determinism --------------------------------------------------------- *)

let same_seed_identical_export () =
  let _, _, t1 = latency_run 42L in
  let _, _, t2 = latency_run 42L in
  check_str "json_string byte-identical" (Export.json_string t1) (Export.json_string t2);
  let _, _, c1 = chaos_run 7L in
  let _, _, c2 = chaos_run 7L in
  check_str "chaos json_string byte-identical" (Export.json_string c1)
    (Export.json_string c2)

(* Provenance must be free when off: no prov events, identical trace bytes,
   and the same virtual-time measurements as a provenance-on run (the spans
   observe the schedule, never perturb it). *)
let off_is_invisible () =
  let tr_off, s_off, _ = latency_run ~provenance:false 42L in
  let prov_events =
    List.filter (fun (e : Sim.Probe.event) -> e.cat = "prov") (Trace.Tracer.events tr_off)
  in
  check_int "no prov events when off" 0 (List.length prov_events);
  let tr_off2, _, _ = latency_run ~provenance:false 42L in
  check_str "off-run trace bytes stable" (Trace.Tracer.chrome_string tr_off)
    (Trace.Tracer.chrome_string tr_off2);
  let _, s_on, _ = latency_run ~provenance:true 42L in
  check "identical latency samples on vs off" true
    (Sim.Stats.Samples.to_list s_on = Sim.Stats.Samples.to_list s_off)

(* --- every exported document is JSON ------------------------------------ *)

(* Each document the program writes must parse with the one codec; the
   three printed as one [Json.t] (telemetry, alert log, span tree) must
   also reprint to their exact bytes. The streamed Chrome trace (fixed-point
   timestamps, one event per line) only has to parse. Names and details
   carry characters that need escaping. *)
let exports_parse_as_json () =
  let reg = Telemetry.Registry.create () in
  let labels = [ ("path", "a\\b \"q\"\n\tend") ] in
  Telemetry.Registry.Counter.add (Telemetry.Registry.counter reg ~labels "ops") 3;
  Telemetry.Registry.Gauge.set (Telemetry.Registry.gauge reg "depth") (-2);
  let h = Telemetry.Registry.histogram reg ~labels "lat_ns" in
  List.iter (Telemetry.Hdr.record h) [ 900; 1_200; 45_000 ];
  let smp = Telemetry.Sampler.create reg ~interval:1_000 in
  Telemetry.Sampler.start_epoch smp;
  List.iter (fun now -> Telemetry.Sampler.tick smp ~now) [ 0; 1_000; 2_000 ];
  let log = Monitor.Log.create () in
  ignore
    (Monitor.Log.add log ~at:5_000 ~epoch:0 ~window:1 ~rule:"p99 \"slo\"" ~edge:`Fire
       ~detail:"p99=12us > 10us\r\n\001");
  ignore (Monitor.Log.add log ~at:9_000 ~epoch:0 ~window:2 ~rule:"avail" ~edge:`Fire ~detail:"");
  let tr, _, t = chaos_run 7L in
  let chrome =
    Trace.Chrome.to_string ~extra:(Export.trace_events t) ~processes:(Trace.Tracer.processes tr)
      ~threads:(Trace.Tracer.threads tr) (Trace.Tracer.events tr)
  in
  List.iter
    (fun (name, doc, reprints) ->
      match Json.of_string doc with
      | Error e -> Alcotest.failf "%s does not parse: %s" name e
      | Ok v -> if reprints then check_str (name ^ " reprints") doc (Json.to_string v))
    [
      ("telemetry export", Telemetry.Export.json ~sampler:smp reg, true);
      ("alert log", Monitor.Log.to_json log, true);
      ("span tree", Export.json_string t, true);
      ("chrome trace with overlay", chrome, false);
    ]

(* --- fail-over forensics ------------------------------------------------- *)

let chaos_forensics () =
  let _, o, t = chaos_run 7L in
  check "run completed" true o.Workload.Chaos.completed;
  check "linearizable" true (o.Workload.Chaos.witness = None);
  let reports = An.request_reports t in
  check_int "one report per client op" o.Workload.Chaos.ops (List.length reports);
  (* crash-leader must produce at least one disruption window, and the
     requests open across it must all be accounted for (none lost or
     duplicated on a completed, linearizable run). *)
  let horizon = 2_000_000_000 in
  let ws = An.windows t ~horizon ~include_open:false in
  check "disruption window found" true (ws <> []);
  let caught = List.filter (An.open_across ~horizon ws) reports in
  check "some requests were in flight at the crash" true (caught <> []);
  List.iter
    (fun (r : An.req_report) ->
      check "caught request replied" true (r.An.replied <> None);
      check "no duplicates" true (r.An.verdict <> An.Duplicated);
      check "no losses" true (r.An.verdict <> An.Lost))
    caught;
  (* At least one in-flight request needed a retry/requeue to survive. *)
  check "a retried request exists" true
    (List.exists (fun (r : An.req_report) -> r.An.verdict = An.Retried) caught)

let suite =
  [
    Alcotest.test_case "tree well-formed (latency)" `Quick tree_well_formed;
    Alcotest.test_case "tree well-formed (chaos)" `Quick chaos_tree_well_formed;
    Alcotest.test_case "phase rows sum to latency" `Quick phases_sum_exactly;
    Alcotest.test_case "same seed, identical export" `Quick same_seed_identical_export;
    Alcotest.test_case "provenance off is invisible" `Quick off_is_invisible;
    Alcotest.test_case "chaos fail-over forensics" `Quick chaos_forensics;
    Alcotest.test_case "exports parse as JSON" `Quick exports_parse_as_json;
  ]

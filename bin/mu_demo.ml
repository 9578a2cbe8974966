(* mu_demo — a command-line front end for the Mu reproduction.

   Subcommands run individual experiments with tunable parameters:

     mu_demo latency    --payload 64 --samples 50000 --attach standalone
     mu_demo compare    --samples 20000
     mu_demo failover   --rounds 200
     mu_demo throughput --batch 32 --outstanding 2 --requests 30000
     mu_demo detectors
     mu_demo profile    --mode failover --folded out.folded --speedscope out.json
     mu_demo report     --samples 20000 --rounds 50
     mu_demo report     --results BENCH_results.json

   All experiments are deterministic given --seed. *)

open Cmdliner

(* Observers attach through the setup's one hook, in the order tracer,
   provenance, telemetry sampler, then the caller's own. *)
let setup_of ?trace ?metrics ?faults ?(provenance = false) ?on_engine seed =
  let observe e =
    Option.iter (fun tr -> Trace.Tracer.attach tr e) trace;
    if provenance then Sim.Engine.set_provenance e true;
    Option.iter (fun smp -> Workload.Experiments.attach_sampler smp e) metrics;
    Option.iter (fun f -> f e) on_engine
  in
  { Workload.Experiments.seed = Int64.of_int seed; cal = Sim.Calibration.default; faults;
    on_engine = Some observe }

(* --- fault scenarios ------------------------------------------------------ *)

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file file s =
  let oc = open_out_bin file in
  output_string oc s;
  close_out oc

let scenario_names = String.concat ", " Faults.Scenario.named

(* A scenario argument is either one of the named scenarios (which depend
   on the cluster size, hence the [~n] at resolution time) or a JSON file
   produced by hand or by a failing sweep's repro. *)
let resolve_scenario ~n spec =
  match Faults.Scenario.by_name spec ~n with
  | Some sc -> Ok sc
  | None ->
    if Sys.file_exists spec then
      Result.map_error
        (fun msg -> Printf.sprintf "%s: %s" spec msg)
        (Faults.Scenario.of_string (read_file spec))
    else
      Error
        (Printf.sprintf "unknown scenario %S (named: %s, or a JSON file)" spec scenario_names)

let scenario_or_die ~n spec =
  match resolve_scenario ~n spec with
  | Ok sc -> (
    match Faults.Scenario.validate ~n sc with
    | Ok () -> sc
    | Error msg ->
      Fmt.epr "invalid scenario for n=%d: %s@." n msg;
      exit 2)
  | Error msg ->
    Fmt.epr "%s@." msg;
    exit 2

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SCENARIO"
        ~doc:
          ("Inject a fault scenario into the experiment's Mu cluster: a named scenario ("
          ^ scenario_names ^ ") or a scenario JSON file."))

(* The chaos-run arguments shared by chaos, watch, explain and profile;
   [scenario_arg] takes the subcommand's default scenario. *)
let n_arg =
  Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc:"Replicas in the chaos run's cluster.")

let scenario_arg default =
  Arg.(
    value
    & opt string default
    & info [ "scenario" ] ~docv:"SCENARIO"
        ~doc:("Named scenario (" ^ scenario_names ^ ") or a scenario JSON file."))

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed for the simulation.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Export telemetry to $(docv) (.json with time-series, .csv, or .prom/.txt \
           Prometheus text).")

let metrics_interval_arg =
  Arg.(
    value
    & opt int 50_000
    & info [ "metrics-interval" ] ~docv:"NS"
        ~doc:"Virtual-time sampling interval for metric time-series.")

let make_sampler metrics_file interval =
  Option.map
    (fun _ -> Telemetry.Sampler.create (Telemetry.Registry.create ()) ~interval)
    metrics_file

let export_metrics sampler metrics_file =
  match sampler, metrics_file with
  | Some smp, Some file ->
    Telemetry.Export.to_file ~sampler:smp (Telemetry.Sampler.registry smp) file;
    Fmt.pr "Metrics written to %s@." file
  | _ -> ()

(* -v / -vv install a Logs reporter so the protocol's role changes,
   permission grants and aborts become visible. *)
let setup_logs =
  let setup verbosity =
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level
      (match verbosity with 0 -> None | 1 -> Some Logs.Info | _ -> Some Logs.Debug)
  in
  Term.(
    const setup
    $ Arg.(value & opt int 0 & info [ "v"; "verbosity" ] ~docv:"N" ~doc:"0 quiet, 1 info, 2 debug."))

let samples_arg default =
  Arg.(value & opt int default & info [ "samples" ] ~docv:"N" ~doc:"Number of measured requests.")

let pp_result name s = Fmt.pr "%-28s %a@." name Sim.Stats.Samples.pp_us s

(* --- latency ------------------------------------------------------------- *)

let attach_conv =
  let parse = function
    | "standalone" -> Ok Mu.Config.Standalone
    | "direct" -> Ok Mu.Config.Direct
    | "handover" -> Ok Mu.Config.Handover
    | s -> Error (`Msg (Printf.sprintf "unknown attach mode %S" s))
  in
  let print ppf = function
    | Mu.Config.Standalone -> Fmt.string ppf "standalone"
    | Mu.Config.Direct -> Fmt.string ppf "direct"
    | Mu.Config.Handover -> Fmt.string ppf "handover"
  in
  Arg.conv (parse, print)

let latency_cmd =
  let run seed samples payload attach metrics_file interval faults_spec =
    let sampler = make_sampler metrics_file interval in
    let faults =
      Option.map (scenario_or_die ~n:Mu.Config.default.Mu.Config.n) faults_spec
    in
    let s =
      Workload.Experiments.mu_replication_latency
        (setup_of ?metrics:sampler ?faults seed)
        ~samples ~payload ~attach
    in
    pp_result (Printf.sprintf "Mu %dB" payload) s;
    export_metrics sampler metrics_file
  in
  let payload =
    Arg.(value & opt int 64 & info [ "payload" ] ~docv:"BYTES" ~doc:"Request payload size.")
  in
  let attach =
    Arg.(
      value
      & opt attach_conv Mu.Config.Standalone
      & info [ "attach" ] ~docv:"MODE" ~doc:"Attach mode: standalone, direct or handover.")
  in
  Cmd.v
    (Cmd.info "latency" ~doc:"Measure Mu's replication latency (paper Fig. 3).")
    Term.(
      const (fun () -> run) $ setup_logs $ seed_arg $ samples_arg 50_000 $ payload $ attach
      $ metrics_arg $ metrics_interval_arg $ faults_arg)

(* --- compare -------------------------------------------------------------- *)

let compare_cmd =
  let run seed samples =
    let setup = setup_of seed in
    pp_result "Mu"
      (Workload.Experiments.mu_replication_latency setup ~samples ~payload:64
         ~attach:Mu.Config.Standalone);
    List.iter
      (fun (name, system) ->
        pp_result name
          (Workload.Experiments.baseline_replication_latency setup ~samples ~system
             ~payload:64))
      [ ("Hermes", `Hermes); ("DARE", `Dare); ("APUS", `Apus); ("HovercRaft", `Hovercraft) ]
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare Mu against DARE, APUS, Hermes, HovercRaft (Fig. 4).")
    Term.(const run $ seed_arg $ samples_arg 20_000)

(* --- failover -------------------------------------------------------------- *)

let failover_cmd =
  let run seed rounds trace_file metrics_file interval faults_spec =
    let tracer = Option.map (fun _ -> Trace.Tracer.create ()) trace_file in
    let sampler = make_sampler metrics_file interval in
    let faults =
      Option.map (scenario_or_die ~n:Mu.Config.default.Mu.Config.n) faults_spec
    in
    let r =
      Workload.Experiments.failover
        (setup_of ?trace:tracer ?metrics:sampler ?faults seed)
        ~rounds
    in
    pp_result "total fail-over" r.Workload.Experiments.total;
    pp_result "  detection" r.Workload.Experiments.detection;
    pp_result "  permission switch" r.Workload.Experiments.switch;
    export_metrics sampler metrics_file;
    (match sampler with
    | Some smp ->
      Fmt.pr "%s" (Telemetry.Dashboard.score_timeline smp)
    | None -> ());
    let rng = Sim.Rng.create (Int64.of_int seed) in
    Fmt.pr "prior systems (modelled): HovercRaft %.1f ms, DARE %.1f ms, Hermes %.1f ms@."
      (Baselines.Failover_model.sample_us Baselines.Failover_model.hovercraft rng /. 1000.0)
      (Baselines.Failover_model.sample_us Baselines.Failover_model.dare rng /. 1000.0)
      (Baselines.Failover_model.sample_us Baselines.Failover_model.hermes rng /. 1000.0);
    match tracer, trace_file with
    | Some tr, Some file ->
      Trace.Tracer.write_chrome tr file;
      Fmt.pr "@.%aChrome trace written to %s (open in ui.perfetto.dev)@."
        Trace.Tracer.pp_summary tr file
    | _ -> ()
  in
  let rounds =
    Arg.(value & opt int 200 & info [ "rounds" ] ~docv:"N" ~doc:"Leader failures to inject.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Record a Chrome trace-event JSON of the run to $(docv).")
  in
  Cmd.v
    (Cmd.info "failover" ~doc:"Measure fail-over time across repeated leader failures (Fig. 6).")
    Term.(
      const (fun () -> run) $ setup_logs $ seed_arg $ rounds $ trace $ metrics_arg
      $ metrics_interval_arg $ faults_arg)

(* --- metrics ------------------------------------------------------------------ *)

let metrics_cmd =
  let run seed =
    (* A short mixed workload (traffic + one fail-over), then the per-plane
       counters each replica accumulated. *)
    let c = Workload.Experiments.counters ~seed:(Int64.of_int seed) () in
    Fmt.pr "fail-over:  %a@." Mu.Metrics.pp c.failover_delta;
    List.iter (fun (id, m) -> Fmt.pr "replica %d: %a@." id Mu.Metrics.pp m) c.replicas;
    Fmt.pr "cluster:   %a@." Mu.Metrics.pp (Mu.Metrics.total (List.map snd c.replicas));
    match c.violations with
    | [] -> Fmt.pr "invariants: all hold@."
    | vs -> Fmt.pr "invariants: %a@." (Fmt.list Mu.Invariants.pp_violation) vs
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Run a mixed workload with one fail-over and print per-replica counters.")
    Term.(const run $ seed_arg)

(* --- throughput ------------------------------------------------------------- *)

let throughput_cmd =
  let run seed requests batch outstanding =
    let p =
      Workload.Experiments.throughput_point (setup_of seed) ~requests ~batch ~outstanding
    in
    Fmt.pr "batch=%d outstanding=%d: %.2f ops/us, median %.2f us, p99 %.2f us@." batch
      outstanding p.Workload.Experiments.ops_per_us
      (Sim.Stats.ns_to_us p.Workload.Experiments.median_latency_ns)
      (Sim.Stats.ns_to_us p.Workload.Experiments.p99_latency_ns)
  in
  let requests =
    Arg.(value & opt int 30_000 & info [ "requests" ] ~docv:"N" ~doc:"Requests to commit.")
  in
  let batch =
    Arg.(value & opt int 1 & info [ "batch" ] ~docv:"N" ~doc:"Requests coalesced per entry.")
  in
  let outstanding =
    Arg.(value & opt int 1 & info [ "outstanding" ] ~docv:"N" ~doc:"Concurrent slots in flight.")
  in
  Cmd.v
    (Cmd.info "throughput" ~doc:"Measure one latency/throughput point (Fig. 7).")
    Term.(const run $ seed_arg $ requests $ batch $ outstanding)

(* --- detectors --------------------------------------------------------------- *)

let detectors_cmd =
  let run seed =
    let rows = Workload.Experiments.ablation_failure_detector (setup_of seed) in
    Fmt.pr "%-34s %14s %16s@." "detector" "detection (us)" "false positives";
    List.iter
      (fun r ->
        Fmt.pr "%-34s %14.0f %10d in %.0fs@." r.Workload.Experiments.detector
          r.Workload.Experiments.detection_us r.Workload.Experiments.false_positives
          r.Workload.Experiments.observation_s)
      rows
  in
  Cmd.v
    (Cmd.info "detectors"
       ~doc:"Compare pull-score failure detection against push heartbeats (§5.1).")
    Term.(const run $ seed_arg)

(* --- chaos and verify ------------------------------------------------------- *)

(* One report printer for both sweeps: the pass count, the generated fault
   and op mix, then the first failure shrunk to a repro bundle. Returns the
   exit code. *)
let print_sweep ~repro_file (report : Modelcheck.Verify.report) =
  Fmt.pr "%d/%d cases conformant@." (report.cases - report.failed) report.cases;
  (* Every action kind listed, zeros included, so a silently-dead
     generator branch is visible. *)
  Fmt.pr "%a@." Faults.Scenario.pp_coverage report.coverage;
  Option.iter (Fmt.pr "history mix: %a@." Modelcheck.History.pp_stats) report.op_stats;
  Option.iter (Fmt.pr "first failure: %a@." Workload.Chaos.pp_witness) report.first_witness;
  match report.minimized with
  | None -> 0
  | Some (bundle, shrunk) ->
    Fmt.pr "minimized to %d ops, %d fault events in %d reruns%s@."
      (Modelcheck.Shrink.ops bundle.b_spec)
      (List.length bundle.b_spec.scenario.Faults.Scenario.events)
      shrunk.reruns
      (if shrunk.exhausted then " (budget exhausted — may not be minimal)" else "");
    Option.iter (Fmt.pr "%a@." Workload.Chaos.pp_witness) shrunk.final.outcome.witness;
    (match repro_file with
    | Some file ->
      write_file file (Modelcheck.Repro.to_string bundle);
      Fmt.pr "minimized repro bundle written to %s@." file
    | None -> Fmt.pr "minimized repro bundle: %s@." (Modelcheck.Repro.to_string bundle));
    1

let repro_arg ~doc =
  Arg.(value & opt (some string) None & info [ "repro" ] ~docv:"FILE" ~doc)

let chaos_cmd =
  let run () seed n scenario_spec sweep repro_file trace_file =
    match sweep with
    | Some cases ->
      exit
        (print_sweep ~repro_file
           (Modelcheck.Verify.sweep ~cases ~traffic:Spec_clients ~seed:(Int64.of_int seed)
              ~log:(Fmt.pr "%s@.") ()))
    | None ->
      let tracer = Option.map (fun _ -> Trace.Tracer.create ()) trace_file in
      let o =
        Workload.Chaos.run
          ~on_engine:(fun e -> Option.iter (fun tr -> Trace.Tracer.attach tr e) tracer)
          (Workload.Chaos.spec ~seed:(Int64.of_int seed) ~n (scenario_or_die ~n scenario_spec))
      in
      Fmt.pr "%a@." Workload.Chaos.pp_outcome o;
      if Workload.Chaos.passed o then Fmt.pr "all runs passed (invariants + linearizability)@."
      else begin
        (* The run's own spec, not shrunk: [verify --replay] re-runs it. *)
        let bundle =
          Modelcheck.Repro.to_string { b_spec = o.spec; b_verdict = Workload.Chaos.verdict o }
        in
        match repro_file with
        | Some file ->
          write_file file bundle;
          Fmt.pr "repro bundle written to %s (not shrunk)@." file
        | None -> Fmt.pr "repro bundle (not shrunk): %s@." bundle
      end;
      (match tracer, trace_file with
      | Some tr, Some file ->
        Trace.Tracer.write_chrome tr file;
        Fmt.pr "Chrome trace written to %s (open in ui.perfetto.dev)@." file
      | _ -> ());
      exit (if Workload.Chaos.passed o then 0 else 1)
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome-format trace of the run to $(docv) (single-scenario mode; \
             ignored by --sweep).")
  in
  let sweep_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "sweep" ] ~docv:"N"
          ~doc:
            "Run $(docv) randomized scenarios (cluster sizes 3 and 5, random \
             closed-loop clients) instead of a single one; every run's seed derives \
             from --seed, and the first failure is shrunk to a bundle.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run Mu under injected faults (crashes, partitions, loss, forced \
          permission failures) and check linearizability plus the Appendix A \
          invariants. Exits non-zero on any violation.")
    Term.(
      const run $ setup_logs $ seed_arg $ n_arg $ scenario_arg "crash-leader" $ sweep_arg
      $ repro_arg
          ~doc:
            "On failure, write a repro bundle to $(docv): the failing run's whole spec \
             and verdict (a single run is not shrunk; --sweep shrinks its first \
             failure). $(b,verify --replay) replays it."
      $ trace_arg)

(* Model-based property testing (DESIGN.md §19): generated chaos specs
   with scripted clients run through the real cluster and judged
   against the pure KV model; the first failure is shrunk to a minimized,
   byte-stable repro bundle that --replay re-executes byte-identically. *)

let verify_cmd =
  let run () seed cases ns inject clients ops_per_client budget repro_file replay
      out_file quiet =
    let log = if quiet then fun _ -> () else fun s -> Fmt.pr "%s@." s in
    match replay with
    | Some file ->
      (* Replay any bundle: re-execute its spec and re-emit the bundle
         with the verdict observed — byte-identical to the input exactly
         when the failure still reproduces. *)
      (match Modelcheck.Repro.of_string (read_file file) with
      | Error msg ->
        Fmt.epr "%s@." msg;
        exit 2
      | Ok bundle ->
        let r, bytes = Modelcheck.Verify.replay bundle in
        Fmt.pr "replay: expected %s, observed %s@."
          (Workload.Chaos.verdict_to_string bundle.b_verdict)
          (Workload.Chaos.verdict_to_string r.verdict);
        Option.iter (Fmt.pr "%a@." Workload.Chaos.pp_witness) r.outcome.witness;
        List.iter
          (fun v -> Fmt.pr "invariant: %a@." Mu.Invariants.pp_violation v)
          r.outcome.violations;
        (match out_file with
        | Some out ->
          write_file out bytes;
          Fmt.pr "re-emitted bundle written to %s@." out
        | None -> ());
        exit (if r.verdict = bundle.b_verdict then 0 else 1))
    | None ->
      if ns = [] || List.exists (fun n -> n < 1) ns then begin
        Fmt.epr "--ns: expected a non-empty list of cluster sizes >= 1@.";
        exit 2
      end;
      exit
        (print_sweep ~repro_file
           (Modelcheck.Verify.sweep ~cases ~ns ~inject
              ~traffic:(Scripted { clients; ops_per_client })
              ~budget ~log ~seed:(Int64.of_int seed) ()))
  in
  let cases_arg =
    Arg.(
      value & opt int 25
      & info [ "cases" ] ~docv:"N" ~doc:"Generated (scenario, history) cases to run.")
  in
  let ns_arg =
    Arg.(
      value
      & opt (list int) [ 3; 5 ]
      & info [ "ns" ] ~docv:"N,M"
          ~doc:"Cluster sizes the cases cycle through.")
  in
  let inject_arg =
    Arg.(
      value & opt int 0
      & info [ "inject-lose-put" ] ~docv:"K"
          ~doc:
            "Self-test: silently lose every $(docv)-th Put on all replicas (0 = \
             off). The sweep must catch and shrink it.")
  in
  let clients_arg =
    Arg.(
      value & opt int 3
      & info [ "clients" ] ~docv:"N" ~doc:"Scripted clients per case.")
  in
  let ops_arg =
    Arg.(
      value & opt int 8
      & info [ "ops-per-client" ] ~docv:"N" ~doc:"Ops per scripted client.")
  in
  let budget_arg =
    Arg.(
      value & opt int 500
      & info [ "shrink-budget" ] ~docv:"N"
          ~doc:"Max candidate re-executions the shrinker may spend.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"BUNDLE"
          ~doc:
            "Replay a repro bundle ($(b,verify) or $(b,chaos) --repro) instead of \
             sweeping; exits 0 iff the recorded verdict reproduces.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "With --replay: write the re-emitted bundle to $(docv) (byte-identical \
             to the input when the failure reproduces).")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress per-case log lines.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Model-based property testing: run generated fault scenarios and client \
          histories against the cluster, check every reply against a pure \
          reference model, and shrink the first failure to a minimized repro \
          bundle.")
    Term.(
      const run $ setup_logs $ seed_arg $ cases_arg $ ns_arg $ inject_arg
      $ clients_arg $ ops_arg $ budget_arg
      $ repro_arg ~doc:"On failure, write the minimized repro bundle to $(docv)."
      $ replay_arg $ out_arg
      $ quiet_arg)

(* --- watch -------------------------------------------------------------------- *)

(* Live SLO dashboard over a chaos run: the online monitor evaluates
   alert rules at virtual-time window boundaries while the cluster runs,
   printing every firing/clearing edge as it happens plus periodic
   status lines. All times are virtual, so equal seeds produce
   byte-identical output; the tier-1 test [chaos alert log deterministic]
   runs a monitored kill-restart chaos run twice and compares the alert
   logs. *)

let watch_cmd =
  let run () seed n scenario_spec clients ops think window interval status_every
      log_file =
    let scenario = scenario_or_die ~n scenario_spec in
    let reg = Telemetry.Registry.create () in
    let sampler = Telemetry.Sampler.create reg ~interval in
    let monitor = ref None in
    let alerts = ref 0 in
    let o =
      Workload.Chaos.run
        ~on_engine:(fun e ->
          Workload.Experiments.attach_sampler sampler e;
          let m = Monitor.Online.attach ~window_ns:window e sampler in
          Monitor.Online.on_alert m (fun entry ->
            incr alerts;
            Fmt.pr "%a@." Monitor.Log.pp_entry entry);
          if status_every > 0 then
            Monitor.Online.on_window m (fun w rules ->
                if (Monitor.Slo.index w + 1) mod status_every = 0 then begin
                  let commits = Monitor.Slo.delta w "mu_commit_apply_ns" in
                  let p99 =
                    match
                      Monitor.Slo.quantile_ns w "mu_replication_latency_ns" 0.99
                    with
                    | Some v -> Printf.sprintf "%dns" v
                    | None -> "-"
                  in
                  let fuo =
                    match Monitor.Slo.value w Monitor.Slo.Max "mu_fuo" with
                    | Some v -> int_of_float v
                    | None -> 0
                  in
                  let firing =
                    List.filter Monitor.Rules.firing rules
                    |> List.map Monitor.Rules.name
                  in
                  Fmt.pr "[%8dus] w=%-4d commits=%-3.0f p99=%-8s fuo=%-5d %a@."
                    (Monitor.Slo.t1 w / 1000)
                    (Monitor.Slo.index w) commits p99 fuo
                    Fmt.(
                      if firing = [] then any "ok"
                      else const (list ~sep:comma string) firing)
                    ()
                end);
          monitor := Some m)
        {
          (Workload.Chaos.spec ~seed:(Int64.of_int seed) ~n scenario) with
          clients = Random { clients; ops; think };
        }
    in
    Fmt.pr "---@.%a@." Workload.Chaos.pp_outcome o;
    (match !monitor with
    | None -> ()
    | Some m ->
      Fmt.pr "windows evaluated: %d; alert edges: %d; still firing: %a@."
        (Monitor.Online.windows m)
        (Monitor.Log.length (Monitor.Online.log m))
        Fmt.(list ~sep:comma string)
        (Monitor.Online.firing m);
      (match log_file with
      | Some file ->
        write_file file (Monitor.Log.to_json (Monitor.Online.log m));
        Fmt.pr "alert log written to %s@." file
      | None -> ()));
    exit (if Workload.Chaos.passed o then 0 else 1)
  in
  let clients_arg =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc:"Closed-loop clients.")
  in
  let ops_arg =
    Arg.(
      value & opt int 600
      & info [ "ops" ] ~docv:"N" ~doc:"Operations per client.")
  in
  let think_arg =
    Arg.(
      value
      & opt int 50_000
      & info [ "think" ] ~docv:"NS"
          ~doc:
            "Virtual think time between a client's operations; the default \
             stretches traffic across the scenario's fault window so rejoins \
             happen under load.")
  in
  let window_arg =
    Arg.(
      value
      & opt int 20_000
      & info [ "window" ] ~docv:"NS" ~doc:"SLO evaluation window (virtual ns).")
  in
  let interval_arg =
    Arg.(
      value
      & opt int 10_000
      & info [ "interval" ] ~docv:"NS" ~doc:"Telemetry sampling interval (virtual ns).")
  in
  let status_arg =
    Arg.(
      value & opt int 250
      & info [ "status-every" ] ~docv:"K"
          ~doc:"Print a status line every $(docv) windows (0 disables).")
  in
  let log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:"Write the alert log (mu-monitor-log/1 JSON) to $(docv).")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Watch a chaos run live: the online monitor evaluates SLO windows \
          (latency bands, commit progress, quorum loss, rejoin lag) in virtual \
          time and prints every alert edge as it happens. Deterministic per seed.")
    Term.(
      const run $ setup_logs $ seed_arg $ n_arg $ scenario_arg "kill-restart" $ clients_arg
      $ ops_arg $ think_arg $ window_arg $ interval_arg $ status_arg $ log_arg)

(* --- explain ------------------------------------------------------------------ *)

(* Post-mortem causal analysis: rerun an experiment with provenance spans
   on, rebuild the span tree, and attribute where every request's time
   went. Fully deterministic: all times are virtual ns printed as
   fixed-point µs, so two runs with the same arguments produce
   byte-identical output. *)

module Prov = struct
  module Tree = Provenance.Tree
  module An = Provenance.Analyze
end

let explain_cmd =
  let us = Trace.Chrome.fixed_ts in
  let print_health tree =
    (match Prov.Tree.check tree with
    | [] -> Fmt.pr "span tree: %d spans, %d dropped, well-formed@." (Prov.Tree.size tree)
              tree.Prov.Tree.dropped
    | bad ->
      Fmt.pr "span tree: %d spans, %d dropped, %d violations:@." (Prov.Tree.size tree)
        tree.Prov.Tree.dropped (List.length bad);
      List.iter (Fmt.pr "  %s@.") bad)
  in
  let print_epochs events =
    match Prov.An.leader_timeline events with
    | [] -> Fmt.pr "leader epochs: none recorded@."
    | es ->
      Fmt.pr "leader epochs:@.";
      List.iter
        (fun (ep : Prov.An.epoch) ->
          Fmt.pr "  t=%sus  replica %d takes over (gen %d)@." (us ep.ets) ep.epid ep.gen)
        es
  in
  let print_outlier tree rank (s : Prov.Tree.span) =
    Fmt.pr "#%d  request span %d  pid %d  t=%sus  end-to-end %sus@." rank s.Prov.Tree.id
      s.Prov.Tree.pid (us s.Prov.Tree.start)
      (us (Prov.Tree.duration s));
    let rows = Prov.An.phases tree s in
    let sum = Prov.An.phase_sum rows in
    Fmt.pr "    phase attribution (sums to %sus):@." (us sum);
    List.iter
      (fun (r : Prov.An.phase_row) ->
        Fmt.pr "      %-18s %12sus  (%dx)@." r.phase (us r.total) r.count)
      rows;
    match Prov.An.peer_ios tree s with
    | [] -> ()
    | ios ->
      Fmt.pr "    per-peer RDMA:@.";
      List.iter
        (fun (io : Prov.An.peer_io) ->
          if io.acked < 0 then
            Fmt.pr "      peer %d %-12s issued t=%sus  never acked@." io.peer io.op
              (us io.issued)
          else
            Fmt.pr "      peer %d %-12s issued t=%sus  acked +%sus  (%s)@." io.peer io.op
              (us io.issued)
              (us (io.acked - io.issued))
              io.status)
        ios
  in
  let explain_latency seed samples payload top =
    let tr = Trace.Tracer.create ~capacity:((samples + 200) * 256) () in
    let setup = setup_of ~trace:tr ~provenance:true seed in
    let (_ : Sim.Stats.Samples.t) =
      Workload.Experiments.mu_replication_latency setup ~samples ~payload
        ~attach:Mu.Config.Standalone
    in
    let events = Trace.Tracer.events tr in
    let tree = Prov.Tree.of_events events in
    Fmt.pr "=== explain: latency run (seed %d, %d measured requests, %dB payload) ===@."
      seed samples payload;
    print_health tree;
    print_epochs events;
    let reqs = Prov.An.requests tree in
    let outliers = Prov.An.top_outliers tree ~k:top in
    Fmt.pr "@.top %d tail outliers (of %d requests):@." (List.length outliers)
      (List.length reqs);
    List.iteri (fun i s -> print_outlier tree (i + 1) s) outliers;
    (* Aggregate: where does a request's time go on average? *)
    let acc = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun s ->
        List.iter
          (fun (r : Prov.An.phase_row) ->
            match Hashtbl.find_opt acc r.phase with
            | Some t -> Hashtbl.replace acc r.phase (t + r.total)
            | None ->
              Hashtbl.replace acc r.phase r.total;
              order := r.phase :: !order)
          (Prov.An.phases tree s))
      reqs;
    let total = List.fold_left (fun t p -> t + Hashtbl.find acc p) 0 !order in
    Fmt.pr "@.aggregate phase shares over %d requests:@." (List.length reqs);
    List.iter
      (fun p ->
        let t = Hashtbl.find acc p in
        Fmt.pr "  %-18s %14sus  %3d%%@." p (us t)
          (if total = 0 then 0 else t * 100 / total))
      (List.rev !order);
    (tr, tree)
  and explain_chaos seed n spec ops_opt =
    (* A repro bundle replays its run verbatim. For a named scenario or
       scenario file, think time stretches a small history across the
       faults (5 ms in) so requests are genuinely in flight at the
       fail-over — more load instead would explode the linearizability
       check. *)
    let of_scenario scenario =
      {
        (Workload.Chaos.spec ~seed:(Int64.of_int seed) ~n scenario) with
        clients = Random { clients = 4; ops = Option.value ops_opt ~default:60; think = 100_000 };
      }
    in
    let spec =
      if Sys.file_exists spec then begin
        let s = read_file spec in
        match Modelcheck.Repro.of_string s with
        | Ok b -> b.b_spec
        | Error bundle_msg -> (
          match Faults.Scenario.of_string s with
          | Ok sc -> of_scenario sc
          | Error msg ->
            Fmt.epr "%s: neither a repro bundle (%s) nor a scenario (%s)@." spec bundle_msg msg;
            exit 2)
      end
      else of_scenario (scenario_or_die ~n spec)
    in
    let tr = Trace.Tracer.create ~capacity:(1 lsl 21) () in
    let o =
      Workload.Chaos.run
        ~on_engine:(fun e ->
          Trace.Tracer.attach tr e;
          Sim.Engine.set_provenance e true)
        spec
    in
    let events = Trace.Tracer.events tr in
    let tree = Prov.Tree.of_events events in
    Fmt.pr "=== explain: chaos run ===@.%a@." Workload.Chaos.pp_outcome o;
    print_health tree;
    print_epochs events;
    let horizon =
      List.fold_left (fun m (ev : Sim.Probe.event) -> max m ev.ts) 0 events
    in
    let windows =
      Prov.An.windows tree ~horizon ~include_open:(not o.Workload.Chaos.completed)
    in
    (match windows with
    | [] -> Fmt.pr "disruption windows: none@."
    | ws ->
      Fmt.pr "disruption windows:@.";
      List.iter
        (fun (w : Prov.An.window) ->
          Fmt.pr "  %-10s pid %d  [%sus, %sus]  %sus@." w.wname w.wpid (us w.wstart)
            (us w.wfinish)
            (us (w.wfinish - w.wstart)))
        ws);
    let reports = Prov.An.request_reports tree in
    let label (r : Prov.An.req_report) =
      (* The chaos harness parents each request under a client_op span
         carrying (proc, req, key, op). *)
      match
        Option.bind (Prov.Tree.span tree r.rid) (fun s ->
            Prov.Tree.span tree s.Prov.Tree.parent)
      with
      | Some p when p.Prov.Tree.name = "client_op" ->
        let a k = Option.value (Prov.Tree.arg p.Prov.Tree.args k) ~default:"?" in
        Printf.sprintf "proc=%s req=%-3s %s(%s)" (a "proc") (a "req") (a "op") (a "key")
      | _ -> "(unlabelled)"
    in
    let caught =
      List.filter (Prov.An.open_across ~horizon windows) reports
    in
    Fmt.pr "@.requests open across a fail-over window: %d of %d@." (List.length caught)
      (List.length reports);
    List.iter
      (fun (r : Prov.An.req_report) ->
        Fmt.pr "  %-24s span %-5d submitted t=%sus  %s  pickups=%d requeues=%d retries=%d  slots=[%s]  -> %s@."
          (label r) r.rid (us r.submitted)
          (match r.replied with
          | Some t -> Printf.sprintf "replied t=%sus" (us t)
          | None -> "never replied")
          r.pickups r.requeues r.retries
          (String.concat "," (List.map string_of_int r.slots))
          (Prov.An.outcome_name r.verdict))
      caught;
    let count v = List.length (List.filter (fun r -> r.Prov.An.verdict = v) reports) in
    Fmt.pr "totals over %d requests: ok=%d retried=%d duplicated=%d lost=%d@."
      (List.length reports) (count Prov.An.Ok) (count Prov.An.Retried)
      (count Prov.An.Duplicated) (count Prov.An.Lost);
    (tr, tree)
  in
  let run () seed samples payload top chaos_spec n ops json_file perfetto_file =
    let tr, tree =
      match chaos_spec with
      | Some spec -> explain_chaos seed n spec ops
      | None -> explain_latency seed samples payload top
    in
    (match json_file with
    | Some file ->
      Provenance.Export.write_json file tree;
      Fmt.pr "@.span tree written to %s@." file
    | None -> ());
    match perfetto_file with
    | Some file ->
      Trace.Chrome.write_file file
        ~extra:(Provenance.Export.trace_events tree)
        ~processes:(Trace.Tracer.processes tr) ~threads:(Trace.Tracer.threads tr)
        (Trace.Tracer.events tr);
      Fmt.pr "Perfetto trace with provenance overlay written to %s@." file
    | None -> ()
  in
  let top_arg =
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"K" ~doc:"Tail outliers to dissect.")
  in
  let payload =
    Arg.(value & opt int 64 & info [ "payload" ] ~docv:"BYTES" ~doc:"Request payload size.")
  in
  let chaos_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"SCENARIO"
          ~doc:
            ("Explain a chaos run instead of a latency run: a named scenario ("
            ^ scenario_names
            ^ "), a scenario JSON file, or a repro bundle written by 'mu_demo chaos' \
               or 'mu_demo verify' --repro (which replays its run verbatim)."))
  in
  let ops_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "ops" ] ~docv:"N"
          ~doc:
            "Operations per chaos client (default: 60 with 100us think time, which \
             stretches the run across the named scenarios' fault windows). Ignored \
             for repro files, which replay the original run.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the reconstructed span tree (schema mu-provenance/1) to $(docv).")
  in
  let perfetto_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace with the provenance overlay (nestable-async spans + \
             causal flow arrows) to $(docv).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Re-run an experiment with causal provenance on and attribute each request's \
          latency to protocol phases; in chaos mode, reconstruct the fate of every \
          request caught in a fail-over (retried, duplicated, lost).")
    Term.(
      const run $ setup_logs $ seed_arg $ samples_arg 2_000 $ payload $ top_arg
      $ chaos_arg $ n_arg $ ops_arg $ json_arg $ perfetto_arg)

(* --- serve ------------------------------------------------------------------- *)

let serve_cmd =
  let run seed shards clients think duration batch doorbell metrics_file interval =
    let sampler = make_sampler metrics_file interval in
    let setup = setup_of ?metrics:sampler seed in
    let r =
      Serving.Surface.run_point setup ~shards ~batch ?doorbell ~clients ~think_ns:think
        ~duration ()
    in
    Fmt.pr "%d shard(s), %d modeled clients, %.0f us think, %d us run@." shards clients
      (Sim.Stats.ns_to_us think) (duration / 1000);
    Fmt.pr "offered %d (%.2f req/us)  completed %d (%.2f req/us)  shed %d  retried %d@."
      r.Serving.Tier.offered r.Serving.Tier.offered_per_us r.Serving.Tier.completed
      r.Serving.Tier.committed_per_us r.Serving.Tier.shed r.Serving.Tier.retried;
    Fmt.pr "latency p50 %.2f us  p99 %.2f us  suppressed arrivals %d@."
      (Sim.Stats.ns_to_us r.Serving.Tier.p50_ns)
      (Sim.Stats.ns_to_us r.Serving.Tier.p99_ns)
      r.Serving.Tier.suppressed;
    List.iter
      (fun (sr : Serving.Tier.shard_report) ->
        Fmt.pr
          "  shard %d: submitted %6d  committed %6d  shed %6d  retried %4d  \
           max-inflight %4d  p50 %6.2f us  p99 %6.2f us@."
          sr.Serving.Tier.shard sr.Serving.Tier.submitted sr.Serving.Tier.committed
          sr.Serving.Tier.shed sr.Serving.Tier.retried sr.Serving.Tier.max_inflight
          (Sim.Stats.ns_to_us sr.Serving.Tier.p50_ns)
          (Sim.Stats.ns_to_us sr.Serving.Tier.p99_ns))
      r.Serving.Tier.per_shard;
    (match sampler with
    | Some smp ->
      Fmt.pr "@.%s" (Telemetry.Dashboard.render ~sampler:smp (Telemetry.Sampler.registry smp))
    | None -> ());
    export_metrics sampler metrics_file
  in
  let shards =
    Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N" ~doc:"Parallel Mu instances (§8).")
  in
  let clients =
    Arg.(
      value
      & opt int 200_000
      & info [ "clients" ] ~docv:"N" ~doc:"Modeled open-loop client population size.")
  in
  let think =
    Arg.(
      value
      & opt int 10_000_000
      & info [ "think" ] ~docv:"NS" ~doc:"Mean per-client think time between requests.")
  in
  let duration =
    Arg.(
      value
      & opt int 1_000_000
      & info [ "duration" ] ~docv:"NS" ~doc:"Virtual time to pace arrivals for.")
  in
  let batch =
    Arg.(value & opt int 8 & info [ "batch" ] ~docv:"N" ~doc:"Requests coalesced per entry.")
  in
  let doorbell =
    Arg.(
      value
      & opt (some int) None
      & info [ "doorbell" ] ~docv:"N"
          ~doc:
            "Log slots per doorbell-batched RDMA write (default: 4 when batch > 1, else \
             1).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Drive a sharded Mu cluster through the serving tier: open-loop Zipf/Poisson \
          client population, per-shard admission control, leader doorbell batching.")
    Term.(
      const (fun () -> run) $ setup_logs $ seed_arg $ shards $ clients $ think $ duration
      $ batch $ doorbell $ metrics_arg $ metrics_interval_arg)

(* --- profile ------------------------------------------------------------------ *)

(* Whole-run virtual-time profiler (DESIGN.md §18): every virtual ns of
   the run is attributed to (host, fiber, open provenance-span stack) and
   the buckets sum exactly to the run's span. The folded/speedscope
   exports carry only virtual time, so equal seeds yield byte-identical
   files. *)

let profile_cmd =
  let run () seed mode samples payload rounds scenario_spec n shards batch folded_file
      speedscope_file top =
    let vts = ref [] in
    let on_engine e = vts := Profile.Vt.attach e :: !vts in
    let label =
      match mode with
      | `Latency ->
        ignore
          (Workload.Experiments.mu_replication_latency
             (setup_of ~provenance:true ~on_engine seed)
             ~samples ~payload ~attach:Mu.Config.Standalone);
        Printf.sprintf "latency %dx%dB" samples payload
      | `Failover ->
        ignore
          (Workload.Experiments.failover (setup_of ~provenance:true ~on_engine seed) ~rounds);
        Printf.sprintf "failover %d rounds" rounds
      | `Chaos ->
        let scenario = scenario_or_die ~n scenario_spec in
        ignore
          (Workload.Chaos.run
             ~on_engine:(fun e ->
               Sim.Engine.set_provenance e true;
               on_engine e)
             (Workload.Chaos.spec ~seed:(Int64.of_int seed) ~n scenario));
        Printf.sprintf "chaos %s n=%d" scenario_spec n
      | `Serve ->
        ignore
          (Serving.Surface.run_point
             (setup_of ~provenance:true ~on_engine seed)
             ~shards ~batch ~clients:200_000 ~think_ns:10_000_000 ~duration:1_000_000 ());
        Printf.sprintf "serve %d shards batch %d" shards batch
    in
    List.iter Profile.Vt.finish !vts;
    let folded = Profile.Vt.folded !vts in
    Fmt.pr "=== profile: %s (seed %d, %d engine(s)) ===@." label seed
      (List.length !vts);
    Fmt.pr "%a" (fun ppf -> Profile.Report.pp ~top ppf) folded;
    (match folded_file with
    | Some file ->
      write_file file (Profile.Vt.to_folded_string folded);
      Fmt.pr "folded stacks written to %s (flamegraph.pl-ready)@." file
    | None -> ());
    match speedscope_file with
    | Some file ->
      write_file file (Profile.Vt.to_speedscope_string ~name:label folded);
      Fmt.pr "speedscope profile written to %s (open in speedscope.app)@." file
    | None -> ()
  in
  let mode_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("latency", `Latency); ("failover", `Failover); ("chaos", `Chaos);
               ("serve", `Serve) ])
          `Failover
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Workload to profile: latency, failover, chaos or serve.")
  in
  let payload =
    Arg.(value & opt int 64 & info [ "payload" ] ~docv:"BYTES" ~doc:"Request payload (latency mode).")
  in
  let rounds =
    Arg.(value & opt int 100 & info [ "rounds" ] ~docv:"N" ~doc:"Leader failures (failover mode).")
  in
  let shards =
    Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N" ~doc:"Parallel Mu instances (serve mode).")
  in
  let batch =
    Arg.(value & opt int 8 & info [ "batch" ] ~docv:"N" ~doc:"Requests per entry (serve mode).")
  in
  let folded_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:"Write folded (flamegraph-collapsed) stacks to $(docv). Byte-deterministic per seed.")
  in
  let speedscope_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "speedscope" ] ~docv:"FILE"
          ~doc:"Write a speedscope JSON profile to $(docv). Byte-deterministic per seed.")
  in
  let top_arg =
    Arg.(value & opt int 15 & info [ "top" ] ~docv:"K" ~doc:"Rows in the self/total tables.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile a run in virtual time: exact exclusive-ns attribution to \
          host/fiber/provenance-span stacks, folded-stack and speedscope exports \
          (byte-deterministic per seed).")
    Term.(
      const run $ setup_logs $ seed_arg $ mode_arg $ samples_arg 5_000
      $ payload $ rounds $ scenario_arg "kill-restart" $ n_arg $ shards $ batch $ folded_arg
      $ speedscope_arg $ top_arg)

(* --- report ------------------------------------------------------------------ *)

(* Text renderer for the engine_speed and profile sections of a
   mu-bench-results/1 file — the bench records them but the dashboard
   never showed them. *)
let render_results_sections file =
  let module J = Json in
  match Profile.Compare.load_results file with
  | Error msg ->
    Fmt.epr "%s@." msg;
    exit 2
  | Ok j ->
    let fnum obj k = Option.value ~default:0.0 (Option.bind (J.member k obj) J.to_float) in
    let inum obj k = Option.value ~default:0 (Option.bind (J.member k obj) J.to_int) in
    let str obj k = Option.value ~default:"?" (Option.bind (J.member k obj) J.to_str) in
    Fmt.pr "=== %s: engine_speed ===@." file;
    (match J.member "engine_speed" j with
    | Some (J.Obj _ as es) ->
      Fmt.pr "  events/sec (wall, volatile)   %12.2e  (heap-engine baseline %.2e)@."
        (fnum es "events_per_sec")
        (fnum es "heap_baseline_events_per_sec");
      Fmt.pr "  minor words/event             %12.2f  (heap-engine baseline %.1f)@."
        (fnum es "minor_words_per_event")
        (fnum es "heap_baseline_minor_words_per_event");
      Fmt.pr "  raw queue at depth %d: heap %.2e ops/s, wheel %.2e ops/s (%.2fx)@."
        (inum es "queue_depth") (fnum es "heap_queue_ops_per_sec")
        (fnum es "wheel_queue_ops_per_sec") (fnum es "queue_speedup")
    | _ -> Fmt.pr "  not recorded (run the engine-speed section)@.");
    Fmt.pr "=== %s: profile ===@." file;
    (match J.member "profile" j with
    | Some (J.Obj _ as p) ->
      Fmt.pr "  mode %s, %d rounds (virtual time, deterministic per seed):@."
        (str p "mode") (inum p "rounds");
      Fmt.pr "  span %d ns, idle %d ns, %d stacks, %d frames@." (inum p "span_ns")
        (inum p "idle_ns") (inum p "stacks") (inum p "frames")
    | _ -> Fmt.pr "  not recorded (run the profile section)@.")

let report_cmd =
  let run seed samples rounds interval metrics_file results_file =
    (match results_file with
    | Some file -> render_results_sections file
    | None -> ());
    if results_file <> None && metrics_file = None then ()
    else begin
      (* One sampler shared across both experiments so the dashboard shows
         replication latency and the fail-over score timeline side by side. *)
      let sampler = Telemetry.Sampler.create (Telemetry.Registry.create ()) ~interval in
      let setup = setup_of ~metrics:sampler seed in
      let lat =
        Workload.Experiments.mu_replication_latency setup ~samples ~payload:64
          ~attach:Mu.Config.Standalone
      in
      let r = Workload.Experiments.failover setup ~rounds in
      pp_result "Mu 64B replication" lat;
      pp_result "total fail-over" r.Workload.Experiments.total;
      Fmt.pr "@.%s"
        (Telemetry.Dashboard.render ~sampler (Telemetry.Sampler.registry sampler));
      export_metrics (Some sampler) metrics_file
    end
  in
  let rounds =
    Arg.(value & opt int 50 & info [ "rounds" ] ~docv:"N" ~doc:"Leader failures to inject.")
  in
  let interval =
    Arg.(
      value
      & opt int 20_000
      & info [ "metrics-interval" ] ~docv:"NS"
          ~doc:"Virtual-time sampling interval for the score timeline.")
  in
  let results_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "results" ] ~docv:"FILE"
          ~doc:
            "Render the engine_speed and profile sections of a mu-bench-results/1 \
             file (e.g. BENCH_results.json) instead of running the live workload.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run a replication-latency + fail-over workload and render a replica health \
          dashboard (latency percentiles, fail-over phase breakdown, score timeline); \
          with --results, render the recorded engine_speed and profile sections of a \
          bench results file.")
    Term.(
      const (fun () -> run) $ setup_logs $ seed_arg $ samples_arg 20_000 $ rounds $ interval
      $ metrics_arg $ results_arg)

let () =
  let doc = "Experiments with Mu: microsecond consensus on a simulated RDMA fabric." in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "mu_demo" ~doc)
          [ latency_cmd; compare_cmd; failover_cmd; throughput_cmd; detectors_cmd;
            metrics_cmd; chaos_cmd; verify_cmd; watch_cmd; explain_cmd; serve_cmd;
            profile_cmd; report_cmd ]))

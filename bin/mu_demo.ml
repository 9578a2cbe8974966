(* mu_demo — a command-line front end for the Mu reproduction.

   Four subcommands build a cluster and observe it: latency (§7.1),
   failover (§7.3), chaos (Appendix A) and serve (§8). They share one set
   of view flags — --trace, --metrics, --profile, --explain and --alerts
   — so any run can be traced, sampled, profiled, explained or monitored:

     mu_demo latency    --payload 64 --samples 2000 --explain spans.json
     mu_demo failover   --rounds 50 --profile out.folded --metrics m.json
     mu_demo chaos      --scenario kill-restart --alerts log.json
     mu_demo serve      --shards 4 --trace t.json
     mu_demo compare    --samples 20000
     mu_demo throughput --batch 32 --outstanding 2 --requests 30000
     mu_demo verify     --cases 50 --repro bundle.json

   All experiments are deterministic given --seed. *)

open Cmdliner

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file file s =
  let oc = open_out_bin file in
  output_string oc s;
  close_out oc

(* A bad input file: say why and exit 2. *)
let die fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "%s@." msg;
      exit 2)
    fmt

(* Every size, count and interval flag parses through [int_from]: a value
   below the bound is an argument error naming the flag (exit 124), not a
   failure inside the run. *)
let int_from lo =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= lo -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
  in
  Arg.conv (parse, Fmt.int)

let pos_int = int_from 1
let nat_int = int_from 0

(* The telemetry export is JSON only; a path naming another format is an
   argument error too, rather than JSON under a misleading name. *)
let json_file =
  let parse s =
    if Filename.check_suffix s ".json" then Ok s
    else Error (`Msg (Printf.sprintf "expected a FILE ending in .json, got %S" s))
  in
  Arg.conv (parse, Fmt.string)

(* --- fault scenarios ------------------------------------------------------ *)

let scenario_names = String.concat ", " Faults.Scenario.named

(* A scenario argument is one of the named scenarios (which depend on the
   cluster size, hence [~n]) or a JSON file written by hand. *)
let scenario_or_die ~n spec =
  let sc =
    match Faults.Scenario.by_name spec ~n with
    | Some sc -> sc
    | None when Sys.file_exists spec -> (
      match Faults.Scenario.of_string (read_file spec) with
      | Ok sc -> sc
      | Error msg -> die "%s: %s" spec msg)
    | None -> die "unknown scenario %S (named: %s, or a JSON file)" spec scenario_names
  in
  match Faults.Scenario.validate ~n sc with
  | Ok () -> sc
  | Error msg -> die "invalid scenario for n=%d: %s" n msg

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SCENARIO"
        ~doc:
          ("Inject a fault scenario into the experiment's Mu cluster: a named scenario ("
          ^ scenario_names ^ ") or a scenario JSON file."))

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed for the simulation.")

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
  Arg.(value & opt pos_int default & info [ "samples" ] ~docv:"N" ~doc:"Number of measured requests.")

let payload_arg =
  Arg.(value & opt nat_int 64 & info [ "payload" ] ~docv:"BYTES" ~doc:"Request payload size.")

let pp_result name s = Fmt.pr "%-28s %a@." name Sim.Stats.Samples.pp_us s

let setup ?faults seed on_engine =
  { Workload.Experiments.seed = Int64.of_int seed; faults; on_engine = Some on_engine }

(* A faulted run that cannot finish (its measuring fiber parked on a
   killed or isolated host) is an outcome, not an internal error: one
   line naming the run and the scenario, exit 1. *)
let unless_unfinished run f =
  try f ()
  with Workload.Experiments.Unfinished { scenario; at } ->
    Fmt.epr "%s: did not finish under faults %s (gave up at %.0f us virtual)@." run scenario
      (Sim.Stats.ns_to_us at);
    exit 1

(* --- views ---------------------------------------------------------------- *)

(* What a run writes besides its own report. Each view is off unless its
   file is given; latency, failover, chaos and serve take them all. *)
type views = {
  trace : string option;
  metrics : string option;
  interval : int;
  profile : string option;
  explain : string option;
  alerts : string option;
}

let views_arg =
  let file ?(path = Arg.string) name doc =
    Arg.(value & opt (some path) None & info [ name ] ~docv:"FILE" ~doc)
  in
  Term.(
    const (fun trace metrics interval profile explain alerts ->
        { trace; metrics; interval; profile; explain; alerts })
    $ file "trace"
        "Record a Chrome trace-event JSON of the run to $(docv) (open in \
         ui.perfetto.dev); with --explain it carries the provenance overlay \
         (nestable-async spans and causal flow arrows)."
    $ file ~path:json_file "metrics"
        "Export telemetry (metrics and time-series) to $(docv), which must end \
         in .json, and print the dashboard."
    $ Arg.(
        value & opt pos_int 50_000
        & info [ "metrics-interval" ] ~docv:"NS"
            ~doc:"Virtual-time telemetry sampling interval (--metrics and --alerts).")
    $ file "profile"
        "Profile the run in virtual time (exact exclusive-ns attribution to \
         host/fiber/provenance-span stacks), print the top-15 table and write \
         $(docv): speedscope JSON when it ends in .json, folded stacks otherwise. \
         Byte-deterministic per seed."
    $ file "explain"
        "Record causal provenance, write the span tree (mu-provenance/1) to \
         $(docv) and print where the requests' time went: tail outliers, phase \
         shares, disruption windows and the fate of every request open across one. \
         The trace ring then holds the whole run in memory, so keep the run small \
         (e.g. latency --samples 2000)."
    $ file "alerts"
        "Run the online SLO monitor over windows of twice the sampling interval, \
         print every alert edge and a status line every 250 windows, and write \
         the alert log (mu-monitor-log/1) to $(docv).")

let no_views v =
  v.trace = None && v.metrics = None && v.profile = None && v.explain = None
  && v.alerts = None

type observers = {
  tracer : Trace.Tracer.t option;
  sampler : Telemetry.Sampler.t option;
  mutable monitor : Monitor.Online.t option;
  mutable vts : Profile.Vt.t list;
}

(* The online monitor prints each alert edge as it happens and a status
   line every 250 windows; all times are virtual. *)
let monitor e sampler ~window =
  let m = Monitor.Online.attach ~window_ns:window e sampler in
  Monitor.Online.on_alert m (Fmt.pr "%a@." Monitor.Log.pp_entry);
  Monitor.Online.on_window m (fun w rules ->
      if (Monitor.Slo.index w + 1) mod 250 = 0 then begin
        let commits = Monitor.Slo.delta w "mu_commit_apply_ns" in
        let p99 =
          match Monitor.Slo.quantile_ns w "mu_replication_latency_ns" 0.99 with
          | Some v -> Printf.sprintf "%dns" v
          | None -> "-"
        in
        let fuo =
          Option.fold ~none:0 ~some:int_of_float (Monitor.Slo.value w Monitor.Slo.Max "mu_fuo")
        in
        let firing = List.filter Monitor.Rules.firing rules |> List.map Monitor.Rules.name in
        Fmt.pr "[%8dus] w=%-4d commits=%-3.0f p99=%-8s fuo=%-5d %a@."
          (Monitor.Slo.t1 w / 1000)
          (Monitor.Slo.index w) commits p99 fuo
          Fmt.(if firing = [] then any "ok" else const (list ~sep:comma string) firing)
          ()
      end);
  m

(* The views' observers and the one [on_engine] hook that attaches them,
   in the documented order: tracer, provenance, telemetry sampler, online
   monitor, profiler. The trace ring keeps the tracer's default 65 536
   events unless --explain needs the whole run: [explain_capacity]. *)
let observe ~explain_capacity v =
  let o =
    {
      tracer =
        (if v.trace = None && v.explain = None then None
         else
           Some
             (Trace.Tracer.create
                ?capacity:(Option.map (fun _ -> explain_capacity) v.explain)
                ()));
      sampler =
        (if v.metrics = None && v.alerts = None then None
         else Some (Telemetry.Sampler.create (Telemetry.Registry.create ()) ~interval:v.interval));
      monitor = None;
      vts = [];
    }
  in
  let on_engine e =
    Option.iter (fun tr -> Trace.Tracer.attach tr e) o.tracer;
    if v.explain <> None || v.profile <> None then Sim.Engine.set_provenance e true;
    Option.iter
      (fun smp ->
        Workload.Experiments.attach_sampler smp e;
        if v.alerts <> None then o.monitor <- Some (monitor e smp ~window:(2 * v.interval)))
      o.sampler;
    if v.profile <> None then o.vts <- Profile.Vt.attach e :: o.vts
  in
  (o, on_engine)

(* Causal post-mortem of a traced run with provenance on: span-tree
   health, leader epochs, the top 5 tail outliers and the phase shares
   over request spans, the disruption windows and the fate of every
   request open across one (a run with no request spans says so and
   prints only the health, epochs and windows). Times are virtual ns
   printed as fixed-point µs, so equal arguments give byte-identical
   output. [include_open] keeps a window the run never closed (a stalled
   chaos run). *)
let print_explain ~include_open tr =
  let module T = Provenance.Tree in
  let module A = Provenance.Analyze in
  let us = Trace.Chrome.fixed_ts in
  let events = Trace.Tracer.events tr in
  let tree = T.of_events events in
  (match T.check tree with
  | [] -> Fmt.pr "span tree: %d spans, %d dropped, well-formed@." (T.size tree) tree.T.dropped
  | bad ->
    Fmt.pr "span tree: %d spans, %d dropped, %d violations:@." (T.size tree) tree.T.dropped
      (List.length bad);
    List.iter (Fmt.pr "  %s@.") bad);
  (match A.leader_timeline events with
  | [] -> Fmt.pr "leader epochs: none recorded@."
  | es ->
    Fmt.pr "leader epochs:@.";
    List.iter
      (fun (ep : A.epoch) ->
        Fmt.pr "  t=%sus  replica %d takes over (gen %d)@." (us ep.ets) ep.epid ep.gen)
      es);
  let reqs = A.requests tree in
  (* A run that drives no client requests (the fail-over run) has no
     request spans to rank, share out or follow across a window. *)
  if reqs = [] then Fmt.pr "@.no request spans: the run drove no client requests@."
  else begin
    let outliers = A.top_outliers tree ~k:5 in
    Fmt.pr "@.top %d tail outliers (of %d requests):@." (List.length outliers) (List.length reqs);
    List.iteri
      (fun i (s : T.span) ->
        Fmt.pr "#%d  request span %d  pid %d  t=%sus  end-to-end %sus@." (i + 1) s.id s.pid
          (us s.start)
          (us (T.duration s));
        let rows = A.phases tree s in
        Fmt.pr "    phase attribution (sums to %sus):@." (us (A.phase_sum rows));
        List.iter
          (fun (r : A.phase_row) ->
            Fmt.pr "      %-18s %12sus  (%dx)@." r.phase (us r.total) r.count)
          rows;
        match A.peer_ios tree s with
        | [] -> ()
        | ios ->
          Fmt.pr "    per-peer RDMA:@.";
          List.iter
            (fun (io : A.peer_io) ->
              if io.acked < 0 then
                Fmt.pr "      peer %d %-12s issued t=%sus  never acked@." io.peer io.op
                  (us io.issued)
              else
                Fmt.pr "      peer %d %-12s issued t=%sus  acked +%sus  (%s)@." io.peer io.op
                  (us io.issued)
                  (us (io.acked - io.issued))
                  io.status)
            ios)
      outliers;
    (* Phase totals in first-seen order. *)
    let shares =
      List.fold_left
        (fun acc s ->
          List.fold_left
            (fun acc (r : A.phase_row) ->
              if List.mem_assoc r.phase acc then
                List.map (fun (p, t) -> (p, if p = r.phase then t + r.total else t)) acc
              else acc @ [ (r.phase, r.total) ])
            acc (A.phases tree s))
        [] reqs
    in
    let total = List.fold_left (fun t (_, p) -> t + p) 0 shares in
    Fmt.pr "@.aggregate phase shares over %d requests:@." (List.length reqs);
    List.iter
      (fun (p, t) ->
        Fmt.pr "  %-18s %14sus  %3d%%@." p (us t) (if total = 0 then 0 else t * 100 / total))
      shares
  end;
  let horizon = List.fold_left (fun m (ev : Sim.Probe.event) -> max m ev.ts) 0 events in
  let windows = A.windows tree ~horizon ~include_open in
  (match windows with
  | [] -> Fmt.pr "@.disruption windows: none@."
  | ws ->
    Fmt.pr "@.disruption windows:@.";
    List.iter
      (fun (w : A.window) ->
        Fmt.pr "  %-10s pid %d  [%sus, %sus]  %sus@." w.wname w.wpid (us w.wstart)
          (us w.wfinish)
          (us (w.wfinish - w.wstart)))
      ws);
  if reqs <> [] then begin
    let reports = A.request_reports tree in
    (* The chaos harness parents each request under a client_op span
       carrying (proc, req, key, op). *)
    let label (r : A.req_report) =
      match Option.bind (T.span tree r.rid) (fun s -> T.span tree s.T.parent) with
      | Some p when p.T.name = "client_op" ->
        let a k = Option.value (T.arg p.T.args k) ~default:"?" in
        Printf.sprintf "proc=%s req=%-3s %s(%s)" (a "proc") (a "req") (a "op") (a "key")
      | _ -> "(unlabelled)"
    in
    let caught = List.filter (A.open_across ~horizon windows) reports in
    Fmt.pr "requests open across a disruption window: %d of %d@." (List.length caught)
      (List.length reports);
    List.iter
      (fun (r : A.req_report) ->
        Fmt.pr
          "  %-24s span %-5d submitted t=%sus  %s  pickups=%d requeues=%d retries=%d  \
           slots=[%s]  -> %s@."
          (label r) r.rid (us r.submitted)
          (match r.replied with
          | Some t -> Printf.sprintf "replied t=%sus" (us t)
          | None -> "never replied")
          r.pickups r.requeues r.retries
          (String.concat "," (List.map string_of_int r.slots))
          (A.outcome_name r.verdict))
      caught;
    let count v = List.length (List.filter (fun r -> r.A.verdict = v) reports) in
    Fmt.pr "totals over %d requests: ok=%d retried=%d duplicated=%d lost=%d@."
      (List.length reports) (count A.Ok) (count A.Retried) (count A.Duplicated) (count A.Lost)
  end;
  tree

(* After the run: print each view's report and write its file. [label]
   names the run in the profile header and the speedscope document. *)
let report_views ?(include_open = false) ~label ~seed v o =
  (match o.sampler, v.metrics with
  | Some smp, Some file ->
    let reg = Telemetry.Sampler.registry smp in
    Fmt.pr "@.%s" (Telemetry.Dashboard.render ~sampler:smp reg);
    Telemetry.Export.to_file ~sampler:smp reg file;
    Fmt.pr "Metrics written to %s@." file
  | _ -> ());
  Option.iter
    (fun file ->
      List.iter Profile.Vt.finish o.vts;
      let folded = Profile.Vt.folded o.vts in
      Fmt.pr "@.=== profile: %s (seed %d, %d engine(s)) ===@.%a" label seed (List.length o.vts)
        (Profile.Report.pp ?top:None) folded;
      if Filename.check_suffix file ".json" then begin
        write_file file (Profile.Vt.to_speedscope_string ~name:label folded);
        Fmt.pr "speedscope profile written to %s (open in speedscope.app)@." file
      end
      else begin
        write_file file (Profile.Vt.to_folded_string folded);
        Fmt.pr "folded stacks written to %s (flamegraph.pl-ready)@." file
      end)
    v.profile;
  (match o.monitor, v.alerts with
  | Some m, Some file ->
    Fmt.pr "windows evaluated: %d; alert edges: %d; still firing: %a@."
      (Monitor.Online.windows m)
      (Monitor.Log.length (Monitor.Online.log m))
      Fmt.(list ~sep:comma string)
      (Monitor.Online.firing m);
    write_file file (Monitor.Log.to_json (Monitor.Online.log m));
    Fmt.pr "alert log written to %s@." file
  | _ -> ());
  Option.iter
    (fun tr ->
      let tree =
        Option.map
          (fun file ->
            Fmt.pr "@.=== explain: %s (seed %d) ===@." label seed;
            let tree = print_explain ~include_open tr in
            Provenance.Export.write_json file tree;
            Fmt.pr "span tree written to %s@." file;
            tree)
          v.explain
      in
      Option.iter
        (fun file ->
          Trace.Chrome.write_file file
            ?extra:(Option.map Provenance.Export.trace_events tree)
            ~processes:(Trace.Tracer.processes tr) ~threads:(Trace.Tracer.threads tr)
            (Trace.Tracer.events tr);
          Fmt.pr "@.%aChrome trace written to %s (open in ui.perfetto.dev)@."
            Trace.Tracer.pp_summary tr file)
        v.trace)
    o.tracer

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
  let run () seed samples payload attach faults v =
    let o, on_engine = observe ~explain_capacity:((samples + 200) * 256) v in
    let faults = Option.map (scenario_or_die ~n:Mu.Config.default.Mu.Config.n) faults in
    let s =
      unless_unfinished "latency" (fun () ->
          Workload.Experiments.mu_replication_latency (setup ?faults seed on_engine) ~samples
            ~payload ~attach)
    in
    pp_result (Printf.sprintf "Mu %dB" payload) s;
    report_views ~label:(Printf.sprintf "latency %dx%dB" samples payload) ~seed v o
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
      const run $ setup_logs $ seed_arg $ samples_arg 50_000 $ payload_arg $ attach $ faults_arg
      $ views_arg)

(* --- compare -------------------------------------------------------------- *)

let compare_cmd =
  let run seed samples =
    let setup = setup seed ignore in
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
  let run () seed rounds faults v =
    let o, on_engine = observe ~explain_capacity:(1 lsl 21) v in
    let faults = Option.map (scenario_or_die ~n:Mu.Config.default.Mu.Config.n) faults in
    let r =
      unless_unfinished "failover" (fun () ->
          Workload.Experiments.failover (setup ?faults seed on_engine) ~rounds)
    in
    pp_result "total fail-over" r.Workload.Experiments.total;
    pp_result "  detection" r.Workload.Experiments.detection;
    pp_result "  permission switch" r.Workload.Experiments.switch;
    let rng = Sim.Rng.create (Int64.of_int seed) in
    Fmt.pr "prior systems (modelled): HovercRaft %.1f ms, DARE %.1f ms, Hermes %.1f ms@."
      (Baselines.Failover_model.sample_us Baselines.Failover_model.hovercraft rng /. 1000.0)
      (Baselines.Failover_model.sample_us Baselines.Failover_model.dare rng /. 1000.0)
      (Baselines.Failover_model.sample_us Baselines.Failover_model.hermes rng /. 1000.0);
    report_views ~label:(Printf.sprintf "failover %d rounds" rounds) ~seed v o
  in
  let rounds =
    Arg.(value & opt pos_int 200 & info [ "rounds" ] ~docv:"N" ~doc:"Leader failures to inject.")
  in
  Cmd.v
    (Cmd.info "failover" ~doc:"Measure fail-over time across repeated leader failures (Fig. 6).")
    Term.(const run $ setup_logs $ seed_arg $ rounds $ faults_arg $ views_arg)

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
      Workload.Experiments.throughput_point (setup seed ignore) ~requests ~batch ~outstanding
    in
    Fmt.pr "batch=%d outstanding=%d: %.2f ops/us, median %.2f us, p99 %.2f us@." batch
      outstanding p.Workload.Experiments.ops_per_us
      (Sim.Stats.ns_to_us p.Workload.Experiments.median_latency_ns)
      (Sim.Stats.ns_to_us p.Workload.Experiments.p99_latency_ns)
  in
  let requests =
    Arg.(value & opt pos_int 30_000 & info [ "requests" ] ~docv:"N" ~doc:"Requests to commit.")
  in
  let batch =
    Arg.(value & opt pos_int 1 & info [ "batch" ] ~docv:"N" ~doc:"Requests coalesced per entry.")
  in
  let outstanding =
    Arg.(value & opt pos_int 1 & info [ "outstanding" ] ~docv:"N" ~doc:"Concurrent slots in flight.")
  in
  Cmd.v
    (Cmd.info "throughput" ~doc:"Measure one latency/throughput point (Fig. 7).")
    Term.(const run $ seed_arg $ requests $ batch $ outstanding)

(* --- detectors --------------------------------------------------------------- *)

let detectors_cmd =
  let run seed =
    let rows = Workload.Experiments.ablation_failure_detector (setup seed ignore) in
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

(* The chaos run's spec: a repro bundle replays its run verbatim; a named
   scenario or scenario file runs under [clients]. *)
let chaos_spec ~seed ~n ~clients arg =
  let of_scenario sc = { (Workload.Chaos.spec ~seed:(Int64.of_int seed) ~n sc) with clients } in
  if Faults.Scenario.by_name arg ~n = None && Sys.file_exists arg then
    let s = read_file arg in
    match Modelcheck.Repro.of_string s, Faults.Scenario.of_string s with
    | Ok b, _ -> b.b_spec
    | Error _, Ok _ -> of_scenario (scenario_or_die ~n arg)
    | Error bundle_msg, Error msg ->
      die "%s: neither a repro bundle (%s) nor a scenario (%s)" arg bundle_msg msg
  else of_scenario (scenario_or_die ~n arg)

let chaos_cmd =
  let run () seed n scenario sweep repro_file clients ops think v =
    match sweep with
    | Some _ when not (no_views v) ->
      `Error (true, "--sweep runs many clusters; the view flags observe a single run")
    | Some cases ->
      exit
        (print_sweep ~repro_file
           (Modelcheck.Verify.sweep ~cases ~traffic:Spec_clients ~seed:(Int64.of_int seed)
              ~log:(Fmt.pr "%s@.") ()))
    | None ->
      let obs, on_engine = observe ~explain_capacity:(1 lsl 21) v in
      let o =
        Workload.Chaos.run ~on_engine
          (chaos_spec ~seed ~n ~clients:(Random { clients; ops; think }) scenario)
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
      report_views ~include_open:(not o.completed)
        ~label:(Printf.sprintf "chaos %s n=%d" scenario n)
        ~seed v obs;
      exit (if Workload.Chaos.passed o then 0 else 1)
  in
  let n_arg =
    Arg.(value & opt pos_int 3 & info [ "n" ] ~docv:"N" ~doc:"Replicas in the chaos run's cluster.")
  in
  let scenario_arg =
    Arg.(
      value
      & opt string "crash-leader"
      & info [ "scenario" ] ~docv:"SCENARIO"
          ~doc:
            ("Named scenario (" ^ scenario_names
           ^ "), a scenario JSON file, or a repro bundle written by --repro (which \
              replays its run verbatim: --n, --clients, --ops and --think are then \
              ignored)."))
  in
  let sweep_arg =
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "sweep" ] ~docv:"N"
          ~doc:
            "Run $(docv) randomized scenarios (cluster sizes 3 and 5, random \
             closed-loop clients) instead of a single one; every run's seed derives \
             from --seed, and the first failure is shrunk to a bundle. Takes no \
             view flag.")
  in
  let clients_arg =
    Arg.(value & opt nat_int 4 & info [ "clients" ] ~docv:"N" ~doc:"Random closed-loop clients.")
  in
  let ops_arg =
    Arg.(value & opt nat_int 25 & info [ "ops" ] ~docv:"N" ~doc:"Operations per client.")
  in
  let think_arg =
    Arg.(
      value & opt nat_int 0
      & info [ "think" ] ~docv:"NS"
          ~doc:
            "Virtual think time between a client's operations; a long one (e.g. \
             50000 with --ops 600) stretches traffic across the scenario's fault \
             window, so fail-overs and rejoins happen under load.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run Mu under injected faults (crashes, partitions, loss, forced \
          permission failures) and check linearizability plus the Appendix A \
          invariants. Exits non-zero on any violation.")
    Term.(
      ret
        (const run $ setup_logs $ seed_arg $ n_arg $ scenario_arg $ sweep_arg
        $ repro_arg
            ~doc:
              "On failure, write a repro bundle to $(docv): the failing run's whole \
               spec and verdict (a single run is not shrunk; --sweep shrinks its \
               first failure). $(b,verify --replay) replays it."
        $ clients_arg $ ops_arg $ think_arg $ views_arg))

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
      let bundle =
        match Modelcheck.Repro.of_string (read_file file) with
        | Error msg -> die "%s" msg
        | Ok bundle -> bundle
      in
      let r, bytes = Modelcheck.Verify.replay bundle in
      Fmt.pr "replay: expected %s, observed %s@."
        (Workload.Chaos.verdict_to_string bundle.b_verdict)
        (Workload.Chaos.verdict_to_string r.verdict);
      Option.iter (Fmt.pr "%a@." Workload.Chaos.pp_witness) r.outcome.witness;
      List.iter
        (fun v -> Fmt.pr "invariant: %a@." Mu.Invariants.pp_violation v)
        r.outcome.violations;
      Option.iter
        (fun out ->
          write_file out bytes;
          Fmt.pr "re-emitted bundle written to %s@." out)
        out_file;
      exit (if r.verdict = bundle.b_verdict then 0 else 1)
    | None ->
      if ns = [] || List.exists (fun n -> n < 1) ns then
        die "--ns: expected a non-empty list of cluster sizes >= 1";
      exit
        (print_sweep ~repro_file
           (Modelcheck.Verify.sweep ~cases ~ns ~inject
              ~traffic:(Scripted { clients; ops_per_client })
              ~budget ~log ~seed:(Int64.of_int seed) ()))
  in
  let cases_arg =
    Arg.(
      value & opt pos_int 25
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
      value & opt nat_int 0
      & info [ "inject-lose-put" ] ~docv:"K"
          ~doc:
            "Self-test: silently lose every $(docv)-th Put on all replicas (0 = \
             off). The sweep must catch and shrink it.")
  in
  let clients_arg =
    Arg.(
      value & opt nat_int 3
      & info [ "clients" ] ~docv:"N" ~doc:"Scripted clients per case.")
  in
  let ops_arg =
    Arg.(
      value & opt nat_int 8
      & info [ "ops-per-client" ] ~docv:"N" ~doc:"Ops per scripted client.")
  in
  let budget_arg =
    Arg.(
      value & opt nat_int 500
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

(* --- serve ------------------------------------------------------------------- *)

let serve_cmd =
  let run () seed shards clients think duration batch doorbell v =
    let o, on_engine = observe ~explain_capacity:(1 lsl 21) v in
    let r =
      Serving.Surface.run_point (setup seed on_engine) ~shards ~batch ?doorbell ~clients
        ~think_ns:think ~duration ()
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
    report_views ~label:(Printf.sprintf "serve %d shards batch %d" shards batch) ~seed v o
  in
  let shards =
    Arg.(value & opt pos_int 2 & info [ "shards" ] ~docv:"N" ~doc:"Parallel Mu instances (§8).")
  in
  let clients =
    Arg.(
      value
      & opt pos_int 200_000
      & info [ "clients" ] ~docv:"N" ~doc:"Modeled open-loop client population size.")
  in
  let think =
    Arg.(
      value
      & opt pos_int 10_000_000
      & info [ "think" ] ~docv:"NS" ~doc:"Mean per-client think time between requests.")
  in
  let duration =
    Arg.(
      value
      & opt pos_int 1_000_000
      & info [ "duration" ] ~docv:"NS" ~doc:"Virtual time to pace arrivals for.")
  in
  let batch =
    Arg.(value & opt pos_int 8 & info [ "batch" ] ~docv:"N" ~doc:"Requests coalesced per entry.")
  in
  let doorbell =
    Arg.(
      value
      & opt (some pos_int) None
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
      const run $ setup_logs $ seed_arg $ shards $ clients $ think $ duration $ batch
      $ doorbell $ views_arg)

let () =
  let doc = "Experiments with Mu: microsecond consensus on a simulated RDMA fabric." in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "mu_demo" ~doc)
          [ latency_cmd; compare_cmd; failover_cmd; throughput_cmd; detectors_cmd;
            metrics_cmd; chaos_cmd; verify_cmd; serve_cmd ]))

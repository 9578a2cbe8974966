(* Determinism rows: each row runs a workload twice, in process, and
   requires the two runs' exports to be byte-identical. The first rows
   are the virtual-time profiler's (DESIGN.md §18): folded and
   speedscope exports of `mu_demo failover --profile` and `mu_demo
   chaos --profile`, and the self-cost sampler attached beside the
   profiler leaving the folded export as the bare run's. Then the bench
   figures' metrics, the `--explain` view's span trees (DESIGN.md §13)
   and a traced DARE baseline, with the check that provenance off leaves no
   trace of it. *)

module E = Workload.Experiments
module Vt = Profile.Vt

let setup ?trace ?metrics ?on_engine ~provenance seed =
  let observe e =
    Option.iter (fun tr -> Trace.Tracer.attach tr e) trace;
    if provenance then Sim.Engine.set_provenance e true;
    Option.iter (fun smp -> E.attach_sampler smp e) metrics;
    Option.iter (fun f -> f e) on_engine
  in
  { E.seed; faults = None; on_engine = Some observe }

(* One run with a profiler (and, given [selfcost], the engine's
   wall-clock self-cost sampler) on every engine it creates, provenance
   on, as the `--profile` view sets them up. [f on_engine] is the run. *)
let profiled ?(selfcost = false) f =
  let vts = ref [] in
  let on_engine e =
    vts := Vt.attach e :: !vts;
    if selfcost then Sim.Engine.set_selfcost e (Sim.Engine.selfcost_create ~clock:Sys.time ())
  in
  f on_engine;
  match !vts with
  | [] -> Alcotest.fail "profiler never attached"
  | vts ->
    List.iter Vt.finish vts;
    Vt.folded vts

let failover ?selfcost ~seed ~rounds () =
  profiled ?selfcost (fun on_engine ->
      ignore
        (E.failover (setup ~on_engine ~provenance:true seed) ~rounds : E.failover_stats))

let chaos ~n ~seed name () =
  profiled (fun on_engine ->
      ignore
        (Workload.Chaos.run
           ~on_engine:(fun e ->
             Sim.Engine.set_provenance e true;
             on_engine e)
           (Util.chaos_named ~n ~seed name)
          : Workload.Chaos.outcome))

(* A bench figure run with a telemetry sampler at the bench's default
   interval. [f setup sampler] runs the figure, checks it and returns its
   results; the row's exports are the metric dump and those results. *)
let with_sampler f () =
  let sampler = Telemetry.Sampler.create (Telemetry.Registry.create ()) ~interval:50_000 in
  let results = f (setup ~metrics:sampler ~provenance:false 42L) sampler in
  [
    ("metrics", Telemetry.Export.json ~sampler (Telemetry.Sampler.registry sampler));
    ("results", Json.to_string results);
  ]

(* p50, p99 and p99.9 in ns, as the bench's results file has them. *)
let samples_json s =
  let module S = Sim.Stats.Samples in
  let n v = Json.Num (float_of_int v) in
  Json.Obj
    [ ("p50", n (S.median s)); ("p99", n (S.percentile s 99.0)); ("p999", n (S.percentile s 99.9)) ]

(* fig3 at the quick bench's 5 000 samples per configuration; the 64 B
   standalone median must sit in the calibrated band, 0.9–2.0 µs. *)
let fig3 setup _ =
  let standalone p = (Printf.sprintf "standalone %dB" p, p, Mu.Config.Standalone) in
  let rows =
    List.map
      (fun (name, payload, attach) ->
        (name, E.mu_replication_latency setup ~samples:5_000 ~payload ~attach))
      (List.map standalone [ 32; 64; 128; 256; 512 ]
      @ [
          ("attached LiQ 32B (direct)", 32, Mu.Config.Direct);
          ("attached HERD 50B (direct)", 50, Mu.Config.Direct);
          ("attached mcd 64B (handover)", 64, Mu.Config.Handover);
          ("attached rds 64B (handover)", 64, Mu.Config.Handover);
        ])
  in
  let p50 = Sim.Stats.Samples.median (List.assoc "standalone 64B" rows) in
  Alcotest.(check bool) "64 B replication median in calibrated band" true
    (p50 >= 900 && p50 <= 2_000);
  Json.Obj (List.map (fun (name, s) -> (name, samples_json s)) rows)

(* fig6 at the quick bench's 100 rounds; some follower's score for the
   paused leader must fall below 2 and, after the resume, climb above 6. *)
let fig6 setup sampler =
  let r = E.failover setup ~rounds:100 in
  Alcotest.(check bool) "score timeline crosses fail then recover" true
    (Telemetry.Dashboard.has_fail_recover_crossing sampler);
  Json.Obj
    [
      ("total", samples_json r.E.total);
      ("detection", samples_json r.E.detection);
      ("switch", samples_json r.E.switch);
    ]

(* `mu_demo latency --seed 42 --samples 500 --explain`: the run traced with
   provenance on, its span tree exported. *)
let explain_latency () =
  let samples = 500 in
  let tr = Trace.Tracer.create ~capacity:((samples + 200) * 256) () in
  ignore
    (E.mu_replication_latency (setup ~trace:tr ~provenance:true 42L) ~samples ~payload:64
       ~attach:Mu.Config.Standalone
      : Sim.Stats.Samples.t);
  [ ("span tree", Provenance.Export.json_string (Provenance.Tree.of_events (Trace.Tracer.events tr))) ]

(* `mu_demo chaos --scenario crash-leader --seed 7 --ops 60 --think 100000
   --explain`: 4 clients x 60 ops 100 us apart across the fault,
   provenance on; the outcome line and the span tree. *)
let explain_chaos () =
  let spec =
    {
      (Util.chaos_named ~n:3 ~seed:7L "crash-leader") with
      clients = Random { clients = 4; ops = 60; think = 100_000 };
    }
  in
  let tr = Trace.Tracer.create ~capacity:(1 lsl 21) () in
  let o =
    Workload.Chaos.run
      ~on_engine:(fun e ->
        Trace.Tracer.attach tr e;
        Sim.Engine.set_provenance e true)
      spec
  in
  Alcotest.(check bool) "chaos run passes" true (Workload.Chaos.passed o);
  [
    ("outcome", Fmt.str "%a" Workload.Chaos.pp_outcome o);
    ("span tree", Provenance.Export.json_string (Provenance.Tree.of_events (Trace.Tracer.events tr)));
  ]

(* `bench --quick --only fig6 --trace F`: an ordinary traced run, where
   provenance is off by default, emits no event in cat "prov". *)
let fig6_trace_without_provenance () =
  let tr = Trace.Tracer.create () in
  ignore (E.failover (setup ~trace:tr ~provenance:false 42L) ~rounds:100 : E.failover_stats);
  let events = Trace.Tracer.events tr in
  Alcotest.(check bool) "trace recorded fail-overs" true
    (List.exists (fun (ev : Sim.Probe.event) -> ev.cat = "failover") events);
  Alcotest.(check int) "prov events" 0
    (List.length (List.filter (fun (ev : Sim.Probe.event) -> ev.cat = "prov") events))

(* `bench --only fig4 --trace F`'s DARE leg: the trace's RDMA async ids
   are the cluster's work-request ids, so a second cluster in the same
   process must number them as the first did. *)
let dare_trace () =
  let tr = Trace.Tracer.create () in
  ignore
    (E.baseline_replication_latency (setup ~trace:tr ~provenance:false 42L) ~samples:300
       ~system:`Dare ~payload:64
      : Sim.Stats.Samples.t);
  [ ("chrome", Trace.Tracer.chrome_string tr) ]

let folded f () = [ ("folded", Vt.to_folded_string (f ())) ]

let both f () =
  let p = f () in
  [ ("folded", Vt.to_folded_string p); ("speedscope", Vt.to_speedscope_string p) ]

(* A row: two runs whose named exports must be equal. *)
type row = {
  name : string;
  first : unit -> (string * string) list;
  second : unit -> (string * string) list;
}

let twice name run = { name; first = run; second = run }

let rows =
  [
    twice "failover profile exports" (both (failover ~seed:42L ~rounds:50));
    twice "kill-restart profile exports" (both (chaos ~n:3 ~seed:7L "kill-restart"));
    {
      name = "self-cost keeps failover folded";
      first = folded (failover ~seed:42L ~rounds:50);
      second = folded (failover ~selfcost:true ~seed:42L ~rounds:50);
    };
    twice "fig3 metrics and results" (with_sampler fig3);
    twice "fig6 metrics and results" (with_sampler fig6);
    twice "explain latency span tree" explain_latency;
    twice "explain chaos outcome and span tree" explain_chaos;
    twice "dare baseline trace" dare_trace;
  ]

let check_row r () =
  let a = r.first () and b = r.second () in
  List.iter2
    (fun (what, x) (_, y) ->
      Alcotest.(check bool) (what ^ " export is non-trivial") true (String.length x > 0);
      Alcotest.(check bool) (what ^ " exports are byte-identical") true (String.equal x y))
    a b

let suite =
  List.map (fun r -> Alcotest.test_case r.name `Quick (check_row r)) rows
  @ [ Alcotest.test_case "fig6 trace without provenance" `Quick fig6_trace_without_provenance ]

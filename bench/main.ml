(* The evaluation harness: regenerates every table and figure of the
   paper's evaluation (§7) on the simulated substrate, printing the
   paper's reported numbers next to ours. See DESIGN.md for the
   experiment index and EXPERIMENTS.md for a recorded run.

   Usage: dune exec bench/main.exe [-- --quick] [-- --only fig4 --only fig6]
                                   [-- --seed N] [-- --trace FILE]
                                   [-- --results FILE] [-- --compare-with FILE]
                                   [-- --compare-report FILE]

   A run writes one mu-bench-results/1 document to --results (default
   BENCH_results.json), plus the Chrome trace when --trace is given.
   --compare-with diffs the document's deterministic fields against a
   baseline document with per-field tolerances (Profile.Compare) and
   exits 1 on regression; --compare-report writes the diff to a file.
   An argument error exits 2 (an uncaught Failure). *)

module E = Workload.Experiments
module J = Json

let quick = ref false
let only : string list ref = ref []
let seed = ref 42L
let trace_file : string option ref = ref None
let tracer : Trace.Tracer.t option ref = ref None
let results_file = ref "BENCH_results.json"
let compare_with : string option ref = ref None
let compare_report : string option ref = ref None
let exit_code = ref 0

(* Every engine an experiment creates gets the run's observers, in the
   order tracer, provenance, then [own]. *)
let setup ?(provenance = false) ?(own = ignore) () =
  let observe e =
    Option.iter (fun tr -> Trace.Tracer.attach tr e) !tracer;
    if provenance then Sim.Engine.set_provenance e true;
    own e
  in
  { E.seed = !seed; faults = None; on_engine = Some observe }

let checks : (string * bool * string) list ref = ref []

let record_check name ok detail =
  checks := (name, ok, detail) :: !checks;
  if not ok then exit_code := 1
let scale n = if !quick then max 100 (n / 10) else n

let section id title = Fmt.pr "@.=== %s — %s ===@." id title

let pp_samples name ~paper s =
  Fmt.pr "  %-34s %-26s measured: %a@." name paper Sim.Stats.Samples.pp_us s

let us ns = Sim.Stats.ns_to_us ns

(* Results-document numbers. A float keeps the decimals of its printed
   column, so equal runs give equal documents. *)
let int = J.num_of_int
let fixed decimals x = J.Num (float_of_string (Printf.sprintf "%.*f" decimals x))

let samples_json s =
  J.Obj
    [
      ("p50", int (Sim.Stats.Samples.median s));
      ("p99", int (Sim.Stats.Samples.percentile s 99.0));
      ("p999", int (Sim.Stats.Samples.percentile s 99.9));
    ]

(* --- Table 1 ----------------------------------------------------------- *)

let tab1 () =
  section "tab1" "hardware (paper) vs calibration constants (ours)";
  Fmt.pr
    "  Paper testbed: 4x (2x Xeon E5-2640 v4, 256 GiB, ConnectX-4, 100 Gb/s IB,@.\
    \  MSB7700 switch, Ubuntu 18.04, OFED 4.7). We substitute a calibrated@.\
    \  simulation; the constants below are the model's datasheet (Sim.Calibration):@.";
  let c = Sim.Calibration.default in
  Fmt.pr "  one-way wire            : %a@." Sim.Distribution.pp c.Sim.Calibration.wire;
  Fmt.pr "  NIC tx/rx per WR        : %d / %d ns@." c.Sim.Calibration.nic_tx
    c.Sim.Calibration.nic_rx;
  Fmt.pr "  inline threshold        : %d B@." c.Sim.Calibration.inline_threshold;
  Fmt.pr "  QP flags / QP restart   : %a / %a@." Sim.Distribution.pp
    c.Sim.Calibration.perm_qp_flags Sim.Distribution.pp c.Sim.Calibration.perm_qp_restart;
  Fmt.pr "  MR rereg                : %.0f ns + %.0f ns/MiB@."
    c.Sim.Calibration.perm_mr_rereg_base c.Sim.Calibration.perm_mr_rereg_per_mib;
  Fmt.pr "  FD read interval        : %d ns; scores [%d..%d], fail <%d, recover >%d@."
    c.Sim.Calibration.fd_read_interval c.Sim.Calibration.score_min
    c.Sim.Calibration.score_max c.Sim.Calibration.score_fail c.Sim.Calibration.score_recover;
  Fmt.pr "  request staging memcpy  : %d ns + %.3f ns/B@." c.Sim.Calibration.memcpy_request
    c.Sim.Calibration.memcpy_byte

(* --- Fig. 2 ------------------------------------------------------------ *)

let fig2 () =
  section "fig2" "permission-switch latency vs log size (§5.2)";
  Fmt.pr
    "  Paper: MR re-reg grows with size to ~100 ms at 4 GiB; QP flags and QP@.\
    \  restart are size-independent, flags ~10x faster than restart.@.";
  let gib = 1024 * 1024 * 1024 in
  let sizes =
    [ 1024; 64 * 1024; 1024 * 1024; 64 * 1024 * 1024; gib; 4 * gib ]
  in
  let rows = E.fig2_permission_switch (setup ()) ~samples:(scale 200) ~sizes in
  Fmt.pr "  %12s %14s %14s %14s@." "log size" "QP flags (us)" "QP restart (us)"
    "MR rereg (us)";
  List.iter
    (fun r ->
      let size =
        if r.E.log_size >= gib then Printf.sprintf "%d GiB" (r.E.log_size / gib)
        else if r.E.log_size >= 1024 * 1024 then
          Printf.sprintf "%d MiB" (r.E.log_size / (1024 * 1024))
        else Printf.sprintf "%d KiB" (r.E.log_size / 1024)
      in
      Fmt.pr "  %12s %14.1f %14.1f %14.1f@." size r.E.qp_flags_us r.E.qp_restart_us
        r.E.mr_rereg_us)
    rows

(* --- Fig. 3 ------------------------------------------------------------ *)

let fig3 () =
  section "fig3" "replication latency: standalone vs attached, payload sweep (§7.1)";
  Fmt.pr
    "  Paper: ~1.3 us median at 64 B; flat below the 256 B inline threshold, then@.\
    \  gradual growth (+35%% at 512 B); handover attach adds ~400 ns; direct less.@.";
  let s = setup () in
  let n = scale 50_000 in
  let standalone =
    List.map
      (fun payload ->
        let r = E.mu_replication_latency s ~samples:n ~payload ~attach:Mu.Config.Standalone in
        pp_samples
          (Printf.sprintf "standalone %dB" payload)
          ~paper:(if payload <= 128 then "paper: ~1.30 us (inline)" else "paper: inline+DMA")
          r;
        (payload, r))
      [ 32; 64; 128; 256; 512 ]
  in
  pp_samples "attached LiQ 32B (direct)" ~paper:"paper: standalone + <400ns"
    (E.mu_replication_latency s ~samples:n ~payload:32 ~attach:Mu.Config.Direct);
  pp_samples "attached HERD 50B (direct)" ~paper:"paper: standalone + <400ns"
    (E.mu_replication_latency s ~samples:n ~payload:50 ~attach:Mu.Config.Direct);
  pp_samples "attached mcd 64B (handover)" ~paper:"paper: standalone + ~400ns"
    (E.mu_replication_latency s ~samples:n ~payload:64 ~attach:Mu.Config.Handover);
  pp_samples "attached rds 64B (handover)" ~paper:"paper: standalone + ~400ns"
    (E.mu_replication_latency s ~samples:n ~payload:64 ~attach:Mu.Config.Handover);
  samples_json (List.assoc 64 standalone)

(* --- Fig. 4 ------------------------------------------------------------ *)

let fig4 () =
  section "fig4" "replication latency vs other systems, 64 B (§7.1)";
  Fmt.pr
    "  Paper: Mu 1.3 us beats every alternative by >= 2.7x (best: Hermes) and@.\
    \  APUS by ~4x; Mu's 99p-1p spread <= 0.5 us, others >= 4 us of variation.@.";
  let s = setup () in
  let n = scale 50_000 in
  let mu = E.mu_replication_latency s ~samples:n ~payload:64 ~attach:Mu.Config.Standalone in
  pp_samples "Mu" ~paper:"paper: 1.30 us" mu;
  let mu_med = Sim.Stats.Samples.median mu in
  List.iter
    (fun (name, system, paper) ->
      let r = E.baseline_replication_latency s ~samples:n ~system ~payload:64 in
      pp_samples name ~paper r;
      Fmt.pr "  %-34s ratio vs Mu: %.1fx@." ""
        (float_of_int (Sim.Stats.Samples.median r) /. float_of_int mu_med))
    [
      ("Hermes", `Hermes, "paper: ~3.5 us (>=2.7x Mu)");
      ("DARE", `Dare, "paper: ~4-5 us");
      ("APUS (mcd)", `Apus, "paper: ~4x Mu");
      ("HovercRaft", `Hovercraft, "paper: 30-60 us (excluded)");
    ];
  samples_json mu

(* --- Fig. 5 ------------------------------------------------------------ *)

let fig5 () =
  section "fig5" "end-to-end client latency (§7.2)";
  let s = setup () in
  let n = scale 20_000 in
  Fmt.pr "  Panel 1 — financial exchange (Liquibook over eRPC):@.";
  Fmt.pr "  Paper: unreplicated 4.08 us median; +Mu ~35%% overhead; large client tail.@.";
  pp_samples "LiQ unreplicated" ~paper:"paper: 4.08 us"
    (E.end_to_end_latency s ~samples:n ~app:Apps.Transport.Erpc ~system:E.Unreplicated);
  pp_samples "LiQ + Mu" ~paper:"paper: ~5.5 us (+35%)"
    (E.end_to_end_latency s ~samples:n ~app:Apps.Transport.Erpc ~system:E.With_mu);
  Fmt.pr "  Cross-check: the executable matching engine behind the eRPC layer@.";
  pp_samples "  LiQ (real service)" ~paper:"matches the model above"
    (E.liquibook_real s ~samples:n ~replicated:false);
  pp_samples "  LiQ + Mu (real, Fig. 1)" ~paper:"matches the model above"
    (E.liquibook_real s ~samples:n ~replicated:true);
  Fmt.pr "  Panel 2 — microsecond KV (HERD-class):@.";
  Fmt.pr "  Paper: HERD 2.25 us; +Mu adds 1.34 us; ~2x better than DARE's KV.@.";
  pp_samples "HERD unreplicated" ~paper:"paper: 2.25 us"
    (E.end_to_end_latency s ~samples:n ~app:Apps.Transport.Herd_rdma ~system:E.Unreplicated);
  pp_samples "HERD + Mu" ~paper:"paper: ~3.6 us"
    (E.end_to_end_latency s ~samples:n ~app:Apps.Transport.Herd_rdma ~system:E.With_mu);
  pp_samples "DARE (own KV)" ~paper:"paper: ~2x HERD+Mu"
    (E.end_to_end_latency s ~samples:n ~app:Apps.Transport.Herd_rdma ~system:E.Dare_kv);
  Fmt.pr "  Cross-check: the executable HERD server (Apps.Herd) on the raw fabric@.";
  pp_samples "  HERD (real server)" ~paper:"matches the model above"
    (E.herd_real s ~samples:n ~replicated:false);
  pp_samples "  HERD + Mu (real, Fig. 1)" ~paper:"matches the model above"
    (E.herd_real s ~samples:n ~replicated:true);
  Fmt.pr "  Panel 3 — traditional KV over TCP (note: 100 us scale):@.";
  Fmt.pr "  Paper: Mu adds ~1.5 us (invisible); ~5 us less than APUS.@.";
  List.iter
    (fun (label, app) ->
      pp_samples (label ^ " unreplicated") ~paper:"paper: 100-300 us"
        (E.end_to_end_latency s ~samples:n ~app ~system:E.Unreplicated);
      pp_samples (label ^ " + Mu") ~paper:"paper: +~1.5 us"
        (E.end_to_end_latency s ~samples:n ~app ~system:E.With_mu);
      pp_samples (label ^ " + APUS") ~paper:"paper: +~5 us vs Mu"
        (E.end_to_end_latency s ~samples:n ~app ~system:E.With_apus))
    [ ("mcd", Apps.Transport.Tcp_memcached); ("rds", Apps.Transport.Tcp_redis) ]

(* --- Fig. 6 ------------------------------------------------------------ *)

let fig6 () =
  section "fig6" "fail-over time distribution (§7.3)";
  Fmt.pr
    "  Paper: median 873 us, 99p 947 us; detection ~600 us; permission switch@.\
    \  ~30%% of total (mean 244 us, 99p 294 us — two permission changes).@.";
  let rounds = scale 1_000 in
  let r = E.failover (setup ()) ~rounds in
  pp_samples "total fail-over" ~paper:"paper: 873 (.. 947) us" r.E.total;
  pp_samples "  detection" ~paper:"paper: ~600 us" r.E.detection;
  pp_samples "  permission switch + catch-up" ~paper:"paper: 244 (.. 294) us" r.E.switch;
  let p50 = Sim.Stats.Samples.median r.E.total in
  Fmt.pr "  share of switch in total: %.0f%% (paper: ~30%%)@."
    (100.0 *. float_of_int (Sim.Stats.Samples.median r.E.switch) /. float_of_int p50);
  (* The paper's median is 873 us: detection plus two permission
     changes. Accept [800, 950] us. *)
  let ok = p50 >= 800_000 && p50 <= 950_000 in
  record_check "fig6_p50_band" ok
    (Printf.sprintf "fail-over p50 %.2f us (accept 800-950 us)" (us p50));
  Fmt.pr "  check: fail-over median in the paper's band: %.2f us %s@." (us p50)
    (if ok then "OK" else "FAIL");
  (* Acceptance check against the trace itself: the perm_switch spans the
     fail-over rounds emitted must sum to the paper's ~30% of total. *)
  (match !tracer with
  | None -> ()
  | Some tr ->
    let bd = Trace.Tracer.breakdown tr in
    let sw = Trace.Breakdown.total_ns bd ~cat:"failover" ~name:"perm_switch" in
    let tot = Trace.Breakdown.total_ns bd ~cat:"failover" ~name:"total" in
    if tot = 0 then begin
      Fmt.pr "  trace check: FAIL (no failover spans recorded)@.";
      record_check "fig6_traced_switch_share" false "no failover spans recorded"
    end
    else begin
      let share = 100.0 *. float_of_int sw /. float_of_int tot in
      let ok = share >= 25.0 && share <= 35.0 in
      Fmt.pr "  traced perm_switch share of fail-over: %.1f%% (accept: 25-35%%) %s@." share
        (if ok then "OK" else "FAIL");
      record_check "fig6_traced_switch_share" ok
        (Printf.sprintf "perm_switch %.1f%% of traced fail-over (accept 25-35%%)" share)
    end);
  Fmt.pr "  histogram of total fail-over (50 us buckets):@.";
  let h = Sim.Stats.Histogram.create ~bucket_width:50_000 in
  List.iter (Sim.Stats.Histogram.add h) (Sim.Stats.Samples.to_list r.E.total);
  Fmt.pr "%a" (Sim.Stats.Histogram.pp ~max_width:44 ()) h;
  (* The order-of-magnitude comparison from §1: prior systems' fail-over
     is bounded below by their conservative timeouts. *)
  let rng = Sim.Rng.create !seed in
  let med d =
    let s = Sim.Stats.Samples.create () in
    for _ = 1 to 200 do
      Sim.Stats.Samples.add s (int_of_float (Baselines.Failover_model.sample_us d rng))
    done;
    float_of_int (Sim.Stats.Samples.median s) /. 1000.0
  in
  Fmt.pr "  fail-over vs prior systems (paper §1: Mu cuts it by >= 90%%):@.";
  Fmt.pr "    %-12s %10.2f ms   (paper: 0.873 ms)@." "Mu" (float_of_int p50 /. 1.0e6);
  Fmt.pr "    %-12s %10.2f ms   (paper: ~10 ms; modelled)@." "HovercRaft"
    (med Baselines.Failover_model.hovercraft);
  let dare = E.dare_failover (setup ()) ~rounds:(scale 60) in
  Fmt.pr "    %-12s %10.2f ms   (paper: ~30 ms; measured, RAFT-style election)@." "DARE"
    (float_of_int (Sim.Stats.Samples.median dare) /. 1.0e6);
  Fmt.pr "    %-12s %10.2f ms   (paper: >= 150 ms; modelled)@." "Hermes"
    (med Baselines.Failover_model.hermes);
  J.Obj
    [
      ("total", samples_json r.E.total);
      ("detection", samples_json r.E.detection);
      ("switch", samples_json r.E.switch);
    ]

(* --- Fig. 7 ------------------------------------------------------------ *)

let fig7 () =
  section "fig7" "throughput vs latency: batching and outstanding requests (§7.4)";
  Fmt.pr
    "  Paper: peak ~47 ops/us at batch 128 x 8 outstanding (17 us median);@.\
    \  2 outstanding beats 1 by 20-50%% at tiny latency cost; wall ~45 ops/us@.\
    \  from the leader's request-staging memcpy.@.";
  let s = setup () in
  let requests = scale 30_000 in
  let batches = if !quick then [ 1; 8; 32; 128 ] else [ 1; 2; 4; 8; 16; 32; 64; 128 ] in
  let outs = if !quick then [ 1; 2; 8 ] else [ 1; 2; 4; 8 ] in
  Fmt.pr "  %4s %4s %12s %14s %12s@." "out" "batch" "ops/us" "median (us)" "p99 (us)";
  List.iter
    (fun outstanding ->
      List.iter
        (fun batch ->
          let p = E.throughput_point s ~requests ~batch ~outstanding in
          Fmt.pr "  %4d %4d %12.2f %14.2f %12.2f@." outstanding batch p.E.ops_per_us
            (us p.E.median_latency_ns) (us p.E.p99_latency_ns))
        batches;
      Fmt.pr "@.")
    outs

(* --- Ablations ---------------------------------------------------------- *)

let ablation_prepare () =
  section "ablation-prepare" "omit-prepare optimization (§4.2, DESIGN.md §6.4)";
  let w, wo = E.ablation_omit_prepare (setup ()) ~samples:(scale 20_000) in
  pp_samples "with omit-prepare (Mu)" ~paper:"one write round" w;
  pp_samples "prepare every propose" ~paper:"+2 read rounds + write" wo

let ablation_perm () =
  section "ablation-perm" "permissions vs re-read race detection (DESIGN.md §6.2)";
  let mu, dp = E.ablation_permissions (setup ()) ~samples:(scale 20_000) in
  pp_samples "Mu (permission-fenced write)" ~paper:"1 round" mu;
  pp_samples "Disk-Paxos style write+re-read" ~paper:"2 rounds" dp

let ablation_shards () =
  section "ablation-shards" "parallel Mu instances for commuting ops (§8)";
  Fmt.pr
    "  Paper: \"several parallel instances of Mu could be used to replicate@.\
    \  concurrent operations that commute... to increase throughput\".@.";
  List.iter
    (fun shards ->
      let tput = E.sharded_throughput (setup ()) ~requests:(scale 20_000) ~shards in
      Fmt.pr "  %d shard(s): %6.2f ops/us@." shards tput)
    [ 1; 2; 4 ]

let ablation_pmem () =
  section "ablation-pmem" "persistent log: RDMA flush-to-PMEM extension (§1)";
  let vol = E.mu_latency_persistence (setup ()) ~samples:(scale 20_000) ~persistent:false in
  let dur = E.mu_latency_persistence (setup ()) ~samples:(scale 20_000) ~persistent:true in
  pp_samples "volatile (paper's Mu)" ~paper:"in-memory only" vol;
  pp_samples "durable (PMEM flush before ack)" ~paper:"paper: \"minimum latency\"" dur;
  Fmt.pr
    "  (One remote flush per accept: +%.2f us — consistent with the paper's@.\
    \   expectation that the SNIA persistence extension adds minimal latency.)@."
    (us (Sim.Stats.Samples.median dur - Sim.Stats.Samples.median vol))

let ablation_fd () =
  section "ablation-fd" "pull-score vs push heartbeats under delay spikes (§5.1)";
  let rows = E.ablation_failure_detector (setup ()) in
  Fmt.pr "  %-34s %14s %16s@." "detector" "detection (us)" "false positives";
  List.iter
    (fun r ->
      Fmt.pr "  %-34s %14.0f %10d in %.0fs@." r.E.detector r.E.detection_us
        r.E.false_positives r.E.observation_s)
    rows;
  Fmt.pr
    "  (The pull-score detector reaches sub-ms detection with zero false@.\
    \   positives; a push detector needs a timeout above the worst network@.\
    \   delay spike to avoid false positives, costing ~10x the detection time.)@."

(* --- Crash recovery ------------------------------------------------------ *)

let recovery () =
  section "recovery" "crash-recovery: kill -> restart -> rejoin under traffic (DESIGN.md §14)";
  Fmt.pr
    "  Beyond the paper's crash-stop model (§2.2): the leader's host is killed@.\
    \  at 5 ms and rebooted at 25 ms under client traffic. The rebooted replica@.\
    \  restores its durable log, catches up from the new leader at bounded rate@.\
    \  and rejoins the quorum at exact log parity.@.";
  let scenario = Option.get (Faults.Scenario.by_name ~n:3 "kill-restart") in
  let o =
    Workload.Chaos.run
      {
        (Workload.Chaos.spec ~seed:!seed ~n:3 scenario) with
        clients = Random { clients = 4; ops = scale 600 / 10; think = 100_000 };
      }
  in
  Fmt.pr "  %a@." Workload.Chaos.pp_outcome o;
  List.iter
    (fun (r : Mu.Smr.rejoin) ->
      Fmt.pr
        "  host %d: time to parity %8.1f us   entries pulled %4d   rounds %3d   \
         recheckpoints %d@."
        r.Mu.Smr.pid
        (us (r.Mu.Smr.parity_at - r.Mu.Smr.restarted_at))
        r.Mu.Smr.entries_pulled r.Mu.Smr.pull_rounds r.Mu.Smr.recheckpoints)
    o.Workload.Chaos.rejoins;
  if o.Workload.Chaos.degraded_ns > 0 then
    Fmt.pr "  degraded (quorum-lost) time: %.1f us@." (us o.Workload.Chaos.degraded_ns);
  if o.Workload.Chaos.shed > 0 then
    Fmt.pr "  requests shed by the queue bound: %d@." o.Workload.Chaos.shed;
  record_check "recovery_kill_restart"
    (Workload.Chaos.passed o && o.Workload.Chaos.rejoins <> [])
    (Fmt.str "%a" Workload.Chaos.pp_outcome o);
  Fmt.pr "  check: rejoin reached parity, run linearizable + invariant-clean: %s@."
    (if Workload.Chaos.passed o && o.Workload.Chaos.rejoins <> [] then "OK" else "FAIL");
  let rejoin (r : Mu.Smr.rejoin) =
    J.Obj
      [
        ("pid", int r.pid);
        ("rejoin_time_to_parity_ns", int (r.parity_at - r.restarted_at));
        ("catch_up_entries", int r.entries_pulled);
        ("pull_rounds", int r.pull_rounds);
        ("recheckpoints", int r.recheckpoints);
      ]
  in
  J.Obj
    [
      ("passed", Bool (Workload.Chaos.passed o));
      ("rejoins", List (List.map rejoin o.Workload.Chaos.rejoins));
      ("shed", int o.Workload.Chaos.shed);
      ("degraded_ns", int o.Workload.Chaos.degraded_ns);
    ]

(* --- Serving tier -------------------------------------------------------- *)

let serving () =
  section "serving" "serving tier: shard-count x batch-size surface (§8 x §7.4)";
  Fmt.pr
    "  An open-loop client population (Zipf keys, Poisson arrivals) drives the@.\
    \  sharded cluster through the serving tier; batch > 1 engages the leader@.\
    \  doorbell (one RDMA write per group of log slots). Fig. 7 extended along@.\
    \  the §8 parallel-instances axis:@.";
  let s = setup () in
  let shard_counts = if !quick then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ] in
  let batches = if !quick then [ 1; 8 ] else [ 1; 4; 16 ] in
  let clients = if !quick then 200_000 else 400_000 in
  let think_ns = 10_000_000 in
  let duration = if !quick then 1_000_000 else 3_000_000 in
  Fmt.pr "  (%d modeled clients, %.0f us think time, %d us per cell)@." clients
    (us think_ns) (duration / 1000);
  let points = Serving.Surface.sweep s ~shard_counts ~batches ~clients ~think_ns ~duration in
  Fmt.pr "  %6s %5s %8s %11s %13s %7s %9s %9s@." "shards" "batch" "doorbell" "offered/us"
    "committed/us" "shed" "p50 (us)" "p99 (us)";
  List.iter
    (fun { Serving.Surface.shards; batch; doorbell; report = r } ->
      Fmt.pr "  %6d %5d %8d %11.2f %13.2f %7d %9.2f %9.2f@." shards batch doorbell
        r.Serving.Tier.offered_per_us r.committed_per_us r.shed (us r.p50_ns) (us r.p99_ns))
    points;
  (* Acceptance: at every shard count, the largest batch (doorbell on)
     must commit more requests per us than unbatched replication. *)
  let max_batch = List.fold_left max 1 batches in
  let ok = Serving.Surface.batching_beats_unbatched points ~batch:max_batch in
  record_check "serving_batching_beats_unbatched" ok
    (Printf.sprintf "batch %d out-commits batch 1 at shard counts %s" max_batch
       (String.concat "," (List.map string_of_int shard_counts)));
  Fmt.pr "  check: batch %d beats batch 1 at every shard count: %s@." max_batch
    (if ok then "OK" else "FAIL");
  let cell { Serving.Surface.shards; batch; doorbell; report = r } =
    J.Obj
      [
        ("shards", int shards);
        ("batch", int batch);
        ("doorbell", int doorbell);
        ("offered_per_us", fixed 3 r.Serving.Tier.offered_per_us);
        ("committed_per_us", fixed 3 r.committed_per_us);
        ("shed", int r.shed);
        ("suppressed", int r.suppressed);
        ("p50_ns", int r.p50_ns);
        ("p99_ns", int r.p99_ns);
      ]
  in
  J.Obj [ ("surface", List (List.map cell points)) ]

(* --- Online SLO monitor --------------------------------------------------- *)

(* One monitored chaos run: print its outcome and alert log. Windows
   are two sampler ticks. *)
let monitored_run ?(interval = 10_000) name =
  let scenario = Option.get (Faults.Scenario.by_name ~n:3 name) in
  let reg = Telemetry.Registry.create () in
  let sampler = Telemetry.Sampler.create reg ~interval in
  let online = ref None in
  (* Dense traffic (think 50 us) keeps every window non-empty so the rate
     rules do not flap; the run outlives the restart so the rejoin
     watchdog sees the catch-up in flight. Deliberately not [scale]d. *)
  let o =
    Workload.Chaos.run
      ~on_engine:(fun e ->
        Workload.Experiments.attach_sampler sampler e;
        online := Some (Monitor.Online.attach ~window_ns:(2 * interval) e sampler))
      {
        (Workload.Chaos.spec ~seed:!seed ~n:3 scenario) with
        clients = Random { clients = 4; ops = 600; think = 50_000 };
      }
  in
  let online = Option.get !online in
  let log = Monitor.Online.log online in
  Fmt.pr "  %a@." Workload.Chaos.pp_outcome o;
  Fmt.pr "  windows evaluated: %d; alert edges: %d@." (Monitor.Online.windows online)
    (Monitor.Log.length log);
  List.iter (fun en -> Fmt.pr "  %a@." Monitor.Log.pp_entry en) (Monitor.Log.entries log);
  (match Monitor.Log.firing log with
  | [] -> ()
  | still -> Fmt.pr "  still firing at halt: %s@." (String.concat ", " still));
  (online, log)

let monitor () =
  section "monitor" "online SLO monitor: deterministic alerting through kill-restart chaos";
  Fmt.pr
    "  The monitor plane (DESIGN.md \xc2\xa716) rides the telemetry sampler during a@.\
    \  kill-restart chaos run: virtual-time SLO windows close every 20 us and a@.\
    \  hysteresis rule engine turns breaches into fire/clear alert edges. A@.\
    \  restart-backlog run, whose rejoin pulls a whole outage backlog, shows@.\
    \  the rejoin watchdog; a quorum-loss run, which kills two of three@.\
    \  replicas and restarts one, shows the quorum-loss alert.@.";
  let online, log = monitored_run "kill-restart" in
  let _, backlog_log = monitored_run "restart-backlog" in
  (* The leader learns it lost its quorum only when its permission
     request times out (500 ms), so this run is long: sample it at 100 us. *)
  let _, quorum_log = monitored_run ~interval:100_000 "quorum-loss" in
  let check_edges rule name log =
    let es =
      List.filter (fun (en : Monitor.Log.entry) -> en.rule = rule) (Monitor.Log.entries log)
    in
    let fired = List.exists (fun (en : Monitor.Log.entry) -> en.edge = `Fire) es in
    let cleared = List.exists (fun (en : Monitor.Log.entry) -> en.edge = `Clear) es in
    let ok = fired && cleared in
    record_check ("monitor_" ^ rule ^ "_edges") ok
      (Printf.sprintf "%s fired=%b cleared=%b during %s" rule fired cleared name);
    Fmt.pr "  check: %s fires and clears: %s@." rule (if ok then "OK" else "FAIL")
  in
  check_edges "quorum_loss" "quorum-loss" quorum_log;
  check_edges "rejoin_lag" "restart-backlog" backlog_log;
  (* Virtual-time alert edges: fully deterministic per seed. *)
  let alert (en : Monitor.Log.entry) =
    J.Obj
      [
        ("at", int en.at);
        ("window", int en.window);
        ("rule", Str en.rule);
        ("edge", Str (match en.edge with `Fire -> "fire" | `Clear -> "clear"));
      ]
  in
  J.Obj
    [
      ("windows", int (Monitor.Online.windows online));
      ("edges", int (Monitor.Log.length log));
      ("alerts", List (List.map alert (Monitor.Log.entries log)));
      ("firing", List (List.map (fun r -> J.Str r) (Monitor.Log.firing log)));
    ]

(* --- Engine event-rate microbench ---------------------------------------- *)

(* Boxed-heap baseline, measured on this box at the PR-8 cut point with the
   boxed-entry binary heap and Fun.protect resume path (64 fibers x 20k
   sleeps, metrics/trace off). Events/sec is wall-clock and so only
   meaningful relative to the same box; minor words per event is a pure
   allocation count and is machine-independent. *)
let heap_baseline_events_per_sec = 5.92e6
let heap_baseline_minor_words_per_event = 35.5
let queue_depth = 8192

(* kv-closed's queue sits at 16-63 events when it pops (DESIGN.md §17). *)
let shallow_queue_depth = 32

(* Raw queue throughput at a fixed depth: a pop immediately followed by a
   push of a slightly later key, the steady-state pattern of a busy
   engine. Same op sequence for both queues, so the ratio is a
   same-box, load-insensitive comparison of [Sim.Evq] with [Sim.Heap]. *)
let queue_ops_per_sec depth push pop =
  let ops = if !quick then 200_000 else 2_000_000 in
  let keys = Array.init 65_536 (fun i -> i * 2_654_435_761 land 0xFFFFF) in
  for i = 0 to depth - 1 do
    push ~key:keys.(i) ~seq:i
  done;
  let t0 = Unix.gettimeofday () in
  for i = 0 to ops - 1 do
    pop ();
    push ~key:(keys.(i land 65_535) + i) ~seq:(depth + i)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  if dt > 0.0 then float_of_int ops /. dt else 0.0

(* [Sim.Heap] and [Sim.Evq] ops/s at [depth], each on a fresh queue. *)
let queue_pair depth =
  let h = Sim.Heap.create () in
  let heap =
    queue_ops_per_sec depth
      (fun ~key ~seq -> Sim.Heap.push h ~key ~seq ())
      (fun () -> ignore (Sim.Heap.pop h))
  in
  let q = Sim.Evq.create () in
  let evq =
    queue_ops_per_sec depth
      (fun ~key ~seq -> Sim.Evq.push q ~key ~seq ())
      (fun () -> ignore (Sim.Evq.pop_exn q))
  in
  (heap, evq)

let engine_speed () =
  section "engine-speed" "wall-clock event throughput of the simulation core";
  Fmt.pr
    "  How many discrete events the DES core retires per wall-clock second@.\
    \  (sleep-wakeup pairs across concurrent fibers; no RDMA, no protocol),@.\
    \  and how many minor words each event allocates with metrics and@.\
    \  tracing off — the configuration million-client runs pay for.@.";
  let fibers = 64 in
  let per_fiber = if !quick then 2_000 else 20_000 in
  let e = Sim.Engine.create ~seed:1L () in
  for i = 1 to fibers do
    Sim.Engine.spawn e ~name:(Printf.sprintf "spin%d" i) (fun () ->
        for _ = 1 to per_fiber do
          Sim.Engine.sleep e 100
        done)
  done;
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Sim.Engine.run e;
  let dt = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  (* one sleep = timer event + resume event *)
  let events = 2 * fibers * per_fiber in
  let rate = if dt > 0.0 then float_of_int events /. dt else 0.0 in
  let words_per_event = words /. float_of_int events in
  Fmt.pr "  %d fibers x %d sleeps: %.2e events/s (%.0f ns/event wall)@." fibers per_fiber
    rate
    (if rate > 0.0 then 1e9 /. rate else 0.0);
  Fmt.pr "  allocation: %.2f minor words/event (heap-engine baseline %.1f)@."
    words_per_event heap_baseline_minor_words_per_event;
  Fmt.pr "  vs recorded heap baseline on this box: %.2fx events/s@."
    (rate /. heap_baseline_events_per_sec);
  (* Same-box raw queue comparison at depth 8192, and at the depth
     kv-closed runs at (reported, not gated). *)
  let heap_ops, evq_ops = queue_pair queue_depth in
  let speedup = if heap_ops > 0.0 then evq_ops /. heap_ops else 0.0 in
  Fmt.pr "  raw queue at depth %d: heap %.2e ops/s, evq %.2e ops/s (%.1fx)@." queue_depth
    heap_ops evq_ops speedup;
  let heap32, evq32 = queue_pair shallow_queue_depth in
  Fmt.pr "  raw queue at depth %d: heap %.2e ops/s, evq %.2e ops/s (%.1fx)@."
    shallow_queue_depth heap32 evq32
    (if heap32 > 0.0 then evq32 /. heap32 else 0.0);
  (* Same-box, load-insensitive speedup gate for the engine's queue. *)
  let ok_queue = speedup >= 1.5 in
  record_check "engine_speed_queue_speedup" ok_queue
    (Printf.sprintf "evq %.2fx heap at depth 8192 (floor 1.5x)" speedup);
  Fmt.pr "  check: evq >= 1.5x heap on raw queue ops: %s@."
    (if ok_queue then "OK" else "FAIL");
  (* Allocation is a count, not a clock: the ceiling is hard. 24 words
     per event sits well under the 35.5 the heap engine spent and well
     over the 14.0 the engine measures, absorbing minor runtime
     variation without hiding a per-event box. *)
  let ok_alloc = words_per_event <= 24.0 in
  record_check "engine_speed_alloc_ceiling" ok_alloc
    (Printf.sprintf "%.2f minor words/event (ceiling 24, heap baseline %.1f)"
       words_per_event heap_baseline_minor_words_per_event);
  Fmt.pr "  check: minor words/event under hard ceiling (%.2f <= 24): %s@." words_per_event
    (if ok_alloc then "OK" else "FAIL");
  (* Generous wall-clock floor: catches order-of-magnitude regressions
     only, never flakes on a loaded CI box. *)
  let ok_rate = rate > 500_000.0 in
  record_check "engine_speed_events_floor" ok_rate
    (Printf.sprintf "%.2e events/s (floor 5e5)" rate);
  Fmt.pr "  check: events/s above generous floor: %s@." (if ok_rate then "OK" else "FAIL");
  (* The rates are wall-clock: volatile, never byte-compared. The
     recorded heap baselines pin what the checks compare against. *)
  J.Obj
    [
      ("events_per_sec", fixed 0 rate);
      ("minor_words_per_event", fixed 2 words_per_event);
      ("queue_depth", int queue_depth);
      ("heap_queue_ops_per_sec", fixed 0 heap_ops);
      ("evq_queue_ops_per_sec", fixed 0 evq_ops);
      ("queue_speedup", fixed 2 speedup);
      ("shallow_queue_depth", int shallow_queue_depth);
      ("shallow_heap_queue_ops_per_sec", fixed 0 heap32);
      ("shallow_evq_queue_ops_per_sec", fixed 0 evq32);
      ("heap_baseline_events_per_sec", fixed 0 heap_baseline_events_per_sec);
      ("heap_baseline_minor_words_per_event", fixed 1 heap_baseline_minor_words_per_event);
    ]

(* --- Whole-run profiler ---------------------------------------------------- *)

let profile_section () =
  section "profile" "whole-run profiler: exact virtual-time attribution of a fail-over run";
  Fmt.pr
    "  The deterministic profiler (DESIGN.md \xc2\xa718) attributes every virtual@.\
    \  nanosecond of a fail-over run to (host, fiber, provenance-span stack);@.\
    \  the attributed buckets sum to the run's span exactly.@.";
  let vts = ref [] in
  let s = setup ~provenance:true ~own:(fun e -> vts := Profile.Vt.attach e :: !vts) () in
  let rounds = scale 200 in
  let _stats = E.failover s ~rounds in
  List.iter Profile.Vt.finish !vts;
  let folded = Profile.Vt.folded !vts in
  let total = Profile.Vt.total_ns folded in
  let span = List.fold_left (fun a vt -> a + Profile.Vt.span_ns vt) 0 !vts in
  let idle = List.fold_left (fun a vt -> a + Profile.Vt.idle_ns vt) 0 !vts in
  let frames = List.length (Profile.Report.of_folded folded) in
  Fmt.pr "%a" (fun ppf -> Profile.Report.pp ~top:8 ppf) folded;
  Fmt.pr "  span %d ns, idle %d ns, %d stacks, %d frames@." span idle (List.length folded) frames;
  let ok = total = span in
  record_check "profile_exact_attribution" ok
    (Printf.sprintf "folded sum %d ns vs run span %d ns over %d rounds" total span rounds);
  Fmt.pr "  check: attributed buckets sum exactly to the run span: %s@."
    (if ok then "OK" else "FAIL");
  J.Obj
    [
      ("mode", Str "failover");
      ("rounds", int rounds);
      ("span_ns", int span);
      ("idle_ns", int idle);
      ("stacks", int (List.length folded));
      ("frames", int frames);
    ]

let write_file file s =
  let oc = open_out_bin file in
  output_string oc s;
  close_out oc

(* The [--only] ids in run order, each with its section. A section
   returns its part of the results document, or null. *)
let sections =
  let plain f () =
    f ();
    J.Null
  in
  [
    ("tab1", plain tab1);
    ("fig2", plain fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", plain fig5);
    ("fig6", fig6);
    ("fig7", plain fig7);
    ("ablation-prepare", plain ablation_prepare);
    ("ablation-perm", plain ablation_perm);
    ("ablation-shards", plain ablation_shards);
    ("ablation-pmem", plain ablation_pmem);
    ("ablation-fd", plain ablation_fd);
    ("recovery", recovery);
    ("serving", serving);
    ("monitor", monitor);
    ("engine-speed", engine_speed);
    ("profile", profile_section);
  ]

let parse_args () =
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--only" :: id :: rest ->
      if not (List.mem_assoc id sections) then
        failwith
          (Printf.sprintf "unknown --only id: %s (valid: %s)" id
             (String.concat ", " (List.map fst sections)));
      only := id :: !only;
      parse rest
    | "--seed" :: n :: rest ->
      seed := Int64.of_string n;
      parse rest
    | "--trace" :: file :: rest ->
      trace_file := Some file;
      parse rest
    | "--results" :: file :: rest ->
      results_file := file;
      parse rest
    | "--compare-with" :: file :: rest ->
      compare_with := Some file;
      parse rest
    | "--compare-report" :: file :: rest ->
      compare_report := Some file;
      parse rest
    | arg :: _ -> failwith ("unknown argument: " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv))

let () =
  parse_args ();
  if !trace_file <> None then tracer := Some (Trace.Tracer.create ());
  Fmt.pr "Mu reproduction benchmark harness (seed %Ld%s)@." !seed
    (if !quick then ", quick mode" else "");
  let ran =
    List.filter_map
      (fun (id, run) -> if !only = [] || List.mem id !only then Some (id, run ()) else None)
      sections
  in
  let value id = Option.value ~default:J.Null (List.assoc_opt id ran) in
  (* The mu-bench-results/1 fields in their fixed order; a section that
     did not run is null. fig3 and fig4 measure the same 64 B
     replication run (same seed and config). *)
  let replication = match value "fig3" with J.Null -> value "fig4" | j -> j in
  let engine_speed = value "engine-speed" in
  let results =
    [
      ("seed", J.Num (Int64.to_float !seed));
      ("quick", J.Bool !quick);
      ("figures", J.List (List.map (fun (id, _) -> J.Str id) ran));
      ("replication_latency_ns", replication);
      ("failover_ns", value "fig6");
      ("recovery", value "recovery");
      ("serving", value "serving");
      ("monitor", value "monitor");
      ( "engine_events_per_sec",
        Option.value ~default:J.Null (J.member "events_per_sec" engine_speed) );
      ("engine_speed", engine_speed);
      ("profile", value "profile");
    ]
  in
  (match !tracer, !trace_file with
  | Some tr, Some file ->
    Trace.Tracer.write_chrome tr file;
    Fmt.pr "@.%a" Trace.Tracer.pp_summary tr;
    Fmt.pr "Chrome trace written to %s (open in ui.perfetto.dev)@." file
  | _ -> ());
  (match Option.bind (J.member "p50" replication) J.to_int with
  | None -> ()
  | Some p50 ->
    (* Calibrated band for 64 B standalone replication: the paper reports
       ~1.3 us median; accept [0.9, 2.0] us. *)
    let ok = p50 >= 900 && p50 <= 2_000 in
    record_check "replication_p50_band" ok
      (Printf.sprintf "p50 %.2f us (accept 0.90-2.00 us)" (us p50));
    Fmt.pr "@.check: 64B replication median in calibrated band: %.2f us %s@." (us p50)
      (if ok then "OK" else "FAIL"));
  let checks =
    J.List
      (List.rev_map
         (fun (name, ok, detail) ->
           J.Obj [ ("name", Str name); ("ok", Bool ok); ("detail", Str detail) ])
         !checks)
  in
  let doc =
    J.Obj ((("schema", J.Str "mu-bench-results/1") :: results) @ [ ("checks", checks) ])
  in
  write_file !results_file (J.to_string doc ^ "\n");
  Fmt.pr "@.Results written to %s@." !results_file;
  (* Regression gate. A missing or incomparable baseline fails it: a
     gate that silently passes on a typo'd path is no gate. *)
  (match !compare_with with
  | None -> ()
  | Some file -> (
    match Profile.Compare.load_results file with
    | Error msg ->
      let msg = "baseline unavailable: " ^ msg in
      Fmt.pr "@.=== compare vs baseline ===@.%s@." msg;
      Option.iter (fun f -> write_file f (msg ^ "\n")) !compare_report;
      exit_code := 1
    | Ok baseline ->
      let r = Profile.Compare.run ~baseline ~current:doc () in
      Fmt.pr "@.=== compare vs baseline ===@.%a" Profile.Compare.pp r;
      (match !compare_report with
      | Some f ->
        write_file f (Profile.Compare.to_string r);
        Fmt.pr "Compare report written to %s@." f
      | None -> ());
      if (not r.Profile.Compare.comparable) || Profile.Compare.regressed r then
        exit_code := 1));
  Fmt.pr "@.done.@.";
  exit !exit_code

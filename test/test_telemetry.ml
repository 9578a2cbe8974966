(* Telemetry subsystem: HDR histogram correctness, registry semantics,
   sampler epochs/decimation, exporter determinism, and end-to-end
   instrumentation through the experiment drivers. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

module T = Telemetry

(* --- Hdr ------------------------------------------------------------------ *)

let hdr_exact_small_values () =
  let h = T.Hdr.create () in
  (* precision 7: values below 2^8 = 256 are recorded exactly. *)
  for v = 0 to 255 do
    T.Hdr.record h v
  done;
  check_int "count" 256 (T.Hdr.count h);
  Alcotest.(check (option int)) "min" (Some 0) (T.Hdr.min_value h);
  Alcotest.(check (option int)) "max" (Some 255) (T.Hdr.max_value h);
  Alcotest.(check (option int)) "median exact" (Some 127) (T.Hdr.quantile h 0.5);
  Alcotest.(check (option int)) "p0 exact" (Some 0) (T.Hdr.quantile h 0.0);
  Alcotest.(check (option int)) "p1 exact" (Some 255) (T.Hdr.quantile h 1.0)

let hdr_quantile_error_bound () =
  (* Record pseudo-random values over four decades and check every
     quantile answer is within the documented relative error of the true
     order statistic. *)
  let h = T.Hdr.create () in
  let n = 20_000 in
  let values = Array.init n (fun i -> 1 + ((i * 48271) mod 999_983) * 10) in
  Array.iter (fun v -> T.Hdr.record h v) values;
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let bound = 2.0 *. (2.0 ** float_of_int (-T.Hdr.precision h)) in
  List.iter
    (fun q ->
      let truth = float_of_int sorted.(int_of_float (q *. float_of_int (n - 1))) in
      match T.Hdr.quantile h q with
      | None -> Alcotest.fail "quantile on non-empty histogram"
      | Some v ->
        let rel = Float.abs (float_of_int v -. truth) /. truth in
        if rel > bound then
          Alcotest.failf "q=%g: got %d, true %.0f, rel error %.4f > %.4f" q v truth rel
            bound)
    [ 0.01; 0.1; 0.5; 0.9; 0.99; 0.999 ]

let hdr_empty_and_bad_inputs () =
  let h = T.Hdr.create () in
  check "empty" true (T.Hdr.is_empty h);
  Alcotest.(check (option int)) "quantile empty" None (T.Hdr.quantile h 0.5);
  Alcotest.(check (option int)) "min empty" None (T.Hdr.min_value h);
  T.Hdr.record h 100;
  Alcotest.(check (option int)) "q out of range" None (T.Hdr.quantile h 1.5);
  T.Hdr.record h (-5);
  (* negative clamps to 0 *)
  Alcotest.(check (option int)) "clamped min" (Some 0) (T.Hdr.min_value h)

let hdr_merge_associative () =
  let mk offsets =
    let h = T.Hdr.create () in
    List.iter (fun o -> Array.iter (fun v -> T.Hdr.record h (v + o)) (Array.init 500 (fun i -> 1 + (i * 7919 mod 100_000)))) offsets;
    h
  in
  (* (a <- b) <- c vs a' <- (b' <- c'): merged counts must agree bucket
     for bucket, which the JSON export makes easy to compare. *)
  let dump h =
    let reg = T.Registry.create () in
    T.Hdr.merge ~into:(T.Registry.histogram reg "m_ns") h;
    T.Export.json reg
  in
  let a = mk [ 0 ] and b = mk [ 3 ] and c = mk [ 50_000 ] in
  T.Hdr.merge ~into:a b;
  T.Hdr.merge ~into:a c;
  let a' = mk [ 0 ] and b' = mk [ 3 ] and c' = mk [ 50_000 ] in
  T.Hdr.merge ~into:b' c';
  T.Hdr.merge ~into:a' b';
  check_int "merged count" (T.Hdr.count a) (T.Hdr.count a');
  check_str "merge associativity (byte-equal export)" (dump a) (dump a');
  check "merge precision mismatch raises" true
    (try
       T.Hdr.merge ~into:(T.Hdr.create ~precision:5 ()) (T.Hdr.create ());
       false
     with Invalid_argument _ -> true)

(* --- Registry ------------------------------------------------------------- *)

let registry_find_or_create () =
  let reg = T.Registry.create () in
  let c1 = T.Registry.counter reg ~labels:[ ("host", "h0") ] "ops_total" in
  let c2 = T.Registry.counter reg ~labels:[ ("host", "h0") ] "ops_total" in
  T.Registry.Counter.inc c1;
  T.Registry.Counter.inc c2;
  (* Same (name, labels) -> same instrument. *)
  check_int "shared instrument" 2 (T.Registry.Counter.value c1);
  let c3 = T.Registry.counter reg ~labels:[ ("host", "h1") ] "ops_total" in
  check_int "distinct labels distinct" 0 (T.Registry.Counter.value c3);
  check_int "metrics" 2 (List.length (T.Registry.metrics reg));
  check "kind mismatch raises" true
    (try
       ignore (T.Registry.gauge reg ~labels:[ ("host", "h0") ] "ops_total");
       false
     with Invalid_argument _ -> true);
  check "bad name raises" true
    (try
       ignore (T.Registry.counter reg "bad name");
       false
     with Invalid_argument _ -> true)

let registry_label_canonicalisation () =
  let reg = T.Registry.create () in
  let g1 = T.Registry.gauge reg ~labels:[ ("b", "2"); ("a", "1") ] "g" in
  let g2 = T.Registry.gauge reg ~labels:[ ("a", "1"); ("b", "2") ] "g" in
  T.Registry.Gauge.set g1 9;
  check_int "label order irrelevant" 9 (T.Registry.Gauge.value g2);
  match T.Registry.metrics reg with
  | [ m ] ->
    Alcotest.(check (list (pair string string)))
      "labels sorted" [ ("a", "1"); ("b", "2") ] m.T.Registry.labels
  | ms -> Alcotest.failf "expected 1 metric, got %d" (List.length ms)

(* --- Sampler -------------------------------------------------------------- *)

let sampler_epochs () =
  let reg = T.Registry.create () in
  let g = T.Registry.gauge reg "depth" in
  let s = T.Sampler.create reg ~interval:1_000 in
  check_int "no epoch yet" (-1) (T.Sampler.current_epoch s);
  check "tick before epoch raises" true
    (try
       T.Sampler.tick s ~now:0;
       false
     with Invalid_argument _ -> true);
  T.Sampler.start_epoch s;
  T.Registry.Gauge.set g 1;
  T.Sampler.tick s ~now:0;
  T.Registry.Gauge.set g 2;
  T.Sampler.tick s ~now:1_000;
  T.Sampler.start_epoch s;
  T.Registry.Gauge.set g 3;
  T.Sampler.tick s ~now:0;
  match T.Sampler.series s with
  | [ (_, epochs) ] ->
    check_int "two epochs" 2 (List.length epochs);
    let e0, pts0 = List.nth epochs 0 and e1, pts1 = List.nth epochs 1 in
    check_int "epoch ids" 0 e0;
    check_int "epoch ids" 1 e1;
    Alcotest.(check (array (pair int (float 0.0)))) "epoch 0 points"
      [| (0, 1.0); (1_000, 2.0) |] pts0;
    Alcotest.(check (array (pair int (float 0.0)))) "epoch 1 points" [| (0, 3.0) |] pts1
  | ss -> Alcotest.failf "expected 1 series, got %d" (List.length ss)

let sampler_decimation_cap () =
  let reg = T.Registry.create () in
  let g = T.Registry.gauge reg "v" in
  let cap = 64 in
  let s = T.Sampler.create ~max_points_per_epoch:cap reg ~interval:1 in
  T.Sampler.start_epoch s;
  for i = 0 to 999 do
    T.Registry.Gauge.set g i;
    T.Sampler.tick s ~now:i
  done;
  match T.Sampler.series s with
  | [ (_, [ (_, pts) ]) ] ->
    check "bounded" true (Array.length pts <= cap);
    check "kept a useful fraction" true (Array.length pts > cap / 4);
    (* Deterministic: same tick sequence, same surviving points. *)
    let reg' = T.Registry.create () in
    let g' = T.Registry.gauge reg' "v" in
    let s' = T.Sampler.create ~max_points_per_epoch:cap reg' ~interval:1 in
    T.Sampler.start_epoch s';
    for i = 0 to 999 do
      T.Registry.Gauge.set g' i;
      T.Sampler.tick s' ~now:i
    done;
    check_str "decimation deterministic" (T.Export.json ~sampler:s reg)
      (T.Export.json ~sampler:s' reg')
  | _ -> Alcotest.fail "expected 1 series with 1 epoch"

let sampler_subscribe () =
  (* Subscribers see the same snapshot the series store records, in
     registration order, tagged with the tick's virtual time and epoch. *)
  let reg = T.Registry.create () in
  let g = T.Registry.gauge reg "depth" in
  let c = T.Registry.counter reg "ops_total" in
  let s = T.Sampler.create reg ~interval:1_000 in
  let seen = ref [] in
  T.Sampler.subscribe s (fun ~now ~epoch samples ->
      seen := ("a", now, epoch, samples) :: !seen);
  T.Sampler.subscribe s (fun ~now:_ ~epoch:_ _ -> seen := ("b", 0, 0, []) :: !seen);
  T.Sampler.start_epoch s;
  T.Registry.Gauge.set g 5;
  T.Registry.Counter.add c 3;
  T.Sampler.tick s ~now:2_000;
  (match List.rev !seen with
  | [ ("a", now, epoch, samples); ("b", _, _, _) ] ->
    check_int "now" 2_000 now;
    check_int "epoch" 0 epoch;
    let value name =
      let m, v =
        List.find (fun ((m : T.Registry.metric), _) -> m.name = name) samples
      in
      ignore m;
      int_of_float v
    in
    check_int "counter sampled" 3 (value "ops_total");
    check_int "gauge sampled" 5 (value "depth")
  | l -> Alcotest.failf "expected callbacks a then b, got %d" (List.length l));
  (* a subscriber added mid-run starts receiving on the next tick *)
  let late = ref 0 in
  T.Sampler.subscribe s (fun ~now:_ ~epoch:_ _ -> incr late);
  T.Sampler.tick s ~now:3_000;
  check_int "late subscriber called once" 1 !late

let hdr_copy_diff () =
  let h = T.Hdr.create () in
  T.Hdr.record h 100;
  T.Hdr.record h 200;
  let snap = T.Hdr.copy h in
  T.Hdr.record h 50;
  T.Hdr.record h 5_000;
  (* the copy is insulated from later records *)
  check_int "snapshot frozen" 2 (T.Hdr.count snap);
  let w = T.Hdr.diff ~since:snap h in
  check_int "window count" 2 (T.Hdr.count w);
  Alcotest.(check (option int)) "window min" (Some 50) (T.Hdr.min_value w);
  (match T.Hdr.max_value w with
  | Some v -> check "window max ~5000" true (v >= 5_000 && v < 5_200)
  | None -> Alcotest.fail "window max");
  check "window sum" true (Float.abs (T.Hdr.sum w -. 5_050.0) < 1.0);
  (* diff against an identical snapshot is empty *)
  let z = T.Hdr.diff ~since:(T.Hdr.copy h) h in
  check "empty diff" true (T.Hdr.is_empty z);
  Alcotest.(check (option int)) "empty diff quantile" None (T.Hdr.quantile z 0.5)

(* --- Exporters ------------------------------------------------------------ *)

let build_reg () =
  let reg = T.Registry.create () in
  let c = T.Registry.counter reg ~help:"ops" ~labels:[ ("host", "h0") ] "ops_total" in
  T.Registry.Counter.add c 5;
  let g = T.Registry.gauge reg "queue_depth" in
  T.Registry.Gauge.set g 3;
  let h = T.Registry.histogram reg ~help:"lat" "lat_ns" in
  List.iter (fun v -> T.Hdr.record h v) [ 100; 200; 300; 4_000; 50_000 ];
  reg

let export_deterministic () =
  check_str "json" (T.Export.json (build_reg ())) (T.Export.json (build_reg ()))

(* --- End to end through the experiment drivers --------------------------- *)

module E = Workload.Experiments

let metrics_setup seed interval =
  let s = T.Sampler.create (T.Registry.create ()) ~interval in
  ({ E.seed; faults = None; on_engine = Some (E.attach_sampler s) }, s)

let e2e_replication_instrumented () =
  let setup, smp = metrics_setup 42L 50_000 in
  let samples = 500 in
  let (_ : Sim.Stats.Samples.t) =
    E.mu_replication_latency setup ~samples ~payload:64 ~attach:Mu.Config.Standalone
  in
  let reg = T.Sampler.registry smp in
  (match T.Registry.find reg ~labels:[ ("replica", "0") ] "mu_replication_latency_ns" with
  | Some { T.Registry.kind = T.Registry.Histogram h; _ } ->
    check "replication histogram populated" true (T.Hdr.count h >= samples)
  | _ -> Alcotest.fail "mu_replication_latency_ns{replica=0} not registered");
  (* The rdma layer reports through the same registry. *)
  check "rdma posts counted" true
    (List.exists
       (fun (m : T.Registry.metric) ->
         m.T.Registry.name = "rdma_wr_posted_total"
         && match m.T.Registry.kind with
            | T.Registry.Counter c -> T.Registry.Counter.value c > 0
            | _ -> false)
       (T.Registry.metrics reg));
  check "time-series recorded" true (T.Sampler.series smp <> [])

let e2e_failover_instrumented () =
  let setup, smp = metrics_setup 42L 20_000 in
  let (_ : E.failover_stats) = E.failover setup ~rounds:2 in
  let reg = T.Sampler.registry smp in
  (match T.Registry.find reg "failover_total_ns" with
  | Some { T.Registry.kind = T.Registry.Histogram h; _ } ->
    check_int "one sample per round" 2 (T.Hdr.count h)
  | _ -> Alcotest.fail "failover_total_ns not registered");
  check "score timeline crossed fail then recover" true
    (T.Dashboard.has_fail_recover_crossing smp);
  let dash = T.Dashboard.render ~sampler:smp reg in
  check "dashboard has sections" true (String.length dash > 0 && dash <> "(no telemetry recorded)\n")

(* The crash-recovery dashboard section renders the rejoin instruments
   (parity latency + catch-up entries per replica, shed and degraded
   totals) and stays silent when no recovery ran. *)
let dashboard_recovery_section () =
  let reg = T.Registry.create () in
  check "silent without recovery metrics" true (T.Dashboard.recovery_summary reg = "");
  let labels = [ ("replica", "2") ] in
  let m = Mu.Metrics.create ~reg ~id:2 () in
  Mu.Metrics.rejoined m ~parity_ns:24_000 ~entries:17;
  Mu.Metrics.shed m;
  Mu.Metrics.shed m;
  Mu.Metrics.quorum_regained m ~degraded_ns:400_000;
  let s = T.Dashboard.recovery_summary reg in
  let has sub = Util.contains_substring s sub in
  check "rejoin row" true (has "replica=2");
  check "entries pulled" true (has "17");
  check "shed total" true (has "shed requests: 2");
  check "degraded windows" true (has "degraded windows: 1");
  (match T.Registry.find reg ~labels "mu_rejoin_time_to_parity_ns" with
  | Some { T.Registry.kind = T.Registry.Histogram h; _ } ->
    check_int "one rejoin recorded" 1 (T.Hdr.count h)
  | _ -> Alcotest.fail "mu_rejoin_time_to_parity_ns not registered");
  let dash = T.Dashboard.render reg in
  check "render includes crash recovery section" true
    (Util.contains_substring dash "crash recovery")

let e2e_export_deterministic () =
  let dump seed =
    let setup, smp = metrics_setup seed 20_000 in
    let (_ : E.failover_stats) = E.failover setup ~rounds:2 in
    T.Export.json ~sampler:smp (T.Sampler.registry smp)
  in
  check_str "equal seeds byte-identical" (dump 42L) (dump 42L);
  check "different seed differs" true (dump 42L <> dump 43L)

(* --- view consistency: one fact, the same in every view ------------------ *)

let counter reg ~replica name =
  match T.Registry.find reg ~labels:[ ("replica", string_of_int replica) ] name with
  | Some { T.Registry.kind = T.Registry.Counter c; _ } -> T.Registry.Counter.value c
  | _ -> Alcotest.failf "%s{replica=%d} not registered" name replica

(* The revoked-head-read recycler round of the replication suite, with a
   registry attached: the skip and the read error it counts are each one
   call, so the leader's ints and its registry counters agree. *)
let recycler_views_agree () =
  let reg = T.Registry.create () in
  let e, rs = Test_replayer.bare_cluster ~reg () in
  let leader = Test_replication.established_leader rs 6 in
  let f1 = rs.(1) in
  Rdma.Qp.set_access (Mu.Replica.peer f1 0).Mu.Replica.misc_qp Rdma.Verbs.access_none;
  Test_replication.run_recycle e leader;
  let m = leader.Mu.Replica.metrics in
  check_int "one skip" 1 m.Mu.Metrics.recycle_skips;
  check "an error" true (m.Mu.Metrics.recycler_errors >= 1);
  check_int "skips agree" m.Mu.Metrics.recycle_skips
    (counter reg ~replica:0 "mu_recycle_skips_total");
  check_int "errors agree" m.Mu.Metrics.recycler_errors
    (counter reg ~replica:0 "mu_recycler_errors_total")

(* Attaching a registry adds instruments, not behaviour: the [mu_demo
   metrics] workload counts the same with and without one. *)
let registry_leaves_counts_alone () =
  let lines c =
    List.map (fun (id, m) -> Fmt.str "replica %d: %a" id Mu.Metrics.pp m) c.E.replicas
  in
  let reg = T.Registry.create () in
  let bare = E.counters ~seed:42L () and observed = E.counters ~reg ~seed:42L () in
  check_int "three replicas" 3 (List.length bare.E.replicas);
  List.iter2 (check_str "replica counts equal") (lines bare) (lines observed);
  check "registry fed" true (counter reg ~replica:0 "mu_elections_total" >= 1)

let suite =
  [
    ("hdr exact small values", `Quick, hdr_exact_small_values);
    ("hdr quantile error bound", `Quick, hdr_quantile_error_bound);
    ("hdr empty and bad inputs", `Quick, hdr_empty_and_bad_inputs);
    ("hdr merge associative", `Quick, hdr_merge_associative);
    ("registry find-or-create", `Quick, registry_find_or_create);
    ("registry label canonicalisation", `Quick, registry_label_canonicalisation);
    ("sampler epochs", `Quick, sampler_epochs);
    ("sampler decimation cap", `Quick, sampler_decimation_cap);
    ("sampler subscribe", `Quick, sampler_subscribe);
    ("hdr copy and diff", `Quick, hdr_copy_diff);
    ("export deterministic", `Quick, export_deterministic);
    ("e2e replication instrumented", `Quick, e2e_replication_instrumented);
    ("e2e failover instrumented", `Quick, e2e_failover_instrumented);
    ("dashboard recovery section", `Quick, dashboard_recovery_section);
    ("e2e export deterministic", `Quick, e2e_export_deterministic);
    ("recycler views agree", `Quick, recycler_views_agree);
    ("registry leaves counts alone", `Quick, registry_leaves_counts_alone);
  ]

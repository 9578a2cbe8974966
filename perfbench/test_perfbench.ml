(* The benchmark's own tests, on the small sizes: same-seed determinism,
   a smoke run of every workload in both modes, and the SLO bisection's
   boundary property. *)

open Perfbench

let size = small
let workload name = Option.get (find_workload size name)
let names = [ "kv-closed"; "serve-open"; "failover-open" ]

let virtual_fingerprint w ~seed =
  fingerprint (virtual_metrics (pool (fixed_reps w untraced ~seed)))

let same_seed_same_bytes name () =
  let w = workload name in
  Alcotest.(check string) "virtual metrics" (virtual_fingerprint w ~seed:5)
    (virtual_fingerprint w ~seed:5)

let e2e_names = [ "lat_p50_us"; "lat_p99_us"; "sim_req_per_s"; "setup_s"; "peak_rss_mb" ]

let smoke name () =
  let w = workload name in
  let o = run_untraced size w ~seed:3 ~seconds:0. in
  List.iter (fun (c, ok) -> Alcotest.(check bool) c true ok) o.checks;
  Alcotest.(check (list string)) "end-to-end metrics" e2e_names
    (List.map (fun m -> m.m_name) o.metrics);
  List.iter
    (fun m -> Alcotest.(check bool) (m.m_name ^ " positive") true (m.value > 0.))
    o.metrics;
  let t = run_traced w ~seed:3 ~seconds:0. in
  List.iter (fun (c, ok) -> Alcotest.(check bool) c true ok) t.checks;
  Alcotest.(check bool) "per-layer metrics are finite" true
    (List.for_all (fun m -> Float.is_finite m.value || m.value = infinity) t.metrics)

(* A synthetic cell whose p99 crosses the SLO at 5.3 req/µs. *)
let bisection_synthetic () =
  let probe rate =
    let lat = if rate <= 5.3 then 10_000 else 90_000 in
    {
      c_issued = 100;
      c_done = 100;
      c_shed = 0;
      c_unanswered = 0;
      c_lat = lat_of (Array.make 100 lat);
      c_retries = 0;
      c_inflight_max = 1;
      c_gen_late = 0;
      c_conserved = true;
      c_echo_ok = true;
    }
  in
  Alcotest.(check (float 1e-9)) "highest passing grid rate" 5.25 (max_rate_slo ~probe)

(* On the real serving tier: the answer passes, one step up fails. *)
let bisection_boundary () =
  let cell rate = serve_cell untraced ~seed:11 ~rate ~duration:size.serve_ns in
  let r = max_rate_slo ~probe:cell in
  Alcotest.(check bool) "a rate was found" true (r > 0.);
  Alcotest.(check bool) "answer passes the SLO" true (slo_pass (cell r));
  Alcotest.(check bool) "next step fails the SLO" false (slo_pass (cell (r +. slo_step)))

let percentiles_count_failures () =
  let l = lat_of ~missed:2 [| 1; 2; 3; 4; 5; 6; 7; 8 |] in
  Alcotest.(check (float 0.)) "p50 over all attempts" 5. (pct_ns l 50.);
  Alcotest.(check (float 0.)) "p90 lands on a failure" infinity (pct_ns l 90.)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        List.map
          (fun n -> Alcotest.test_case ("same seed, same virtual metrics: " ^ n) `Quick
             (same_seed_same_bytes n))
          names
        @ List.map (fun n -> Alcotest.test_case ("smoke: " ^ n) `Quick (smoke n)) names
        @ [
            Alcotest.test_case "percentiles count failures as misses" `Quick
              percentiles_count_failures;
            Alcotest.test_case "bisection on a synthetic cell" `Quick bisection_synthetic;
            Alcotest.test_case "bisection boundary on the serving tier" `Quick
              bisection_boundary;
          ] );
    ]

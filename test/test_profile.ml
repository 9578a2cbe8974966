(* Profile library: virtual-time profiler determinism and exactness,
   the perf-regression compare gate, span pairing and per-frame totals. *)

module E = Workload.Experiments
module Vt = Profile.Vt
module J = Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- virtual-time profiler ---------------------------------------------- *)

(* Failover with a profiler attached to every engine the experiment
   creates; provenance on so span frames appear in the stacks. *)
let profiled_failover ?(rounds = 2) seed =
  let vts = ref [] in
  let setup =
    {
      E.seed;
      faults = None;
      on_engine =
        Some
          (fun e ->
            Sim.Engine.set_provenance e true;
            vts := Vt.attach e :: !vts);
    }
  in
  let (_ : E.failover_stats) = E.failover setup ~rounds in
  match !vts with
  | [] -> Alcotest.fail "profiler never attached"
  | vts ->
    List.iter Vt.finish vts;
    vts

let exports vts =
  let folded = Vt.folded vts in
  (Vt.to_folded_string folded, Vt.to_speedscope_string folded)

let profile_deterministic () =
  let fa, sa = exports (profiled_failover 7L) in
  let fb, sb = exports (profiled_failover 7L) in
  check_str "byte-identical folded export" fa fb;
  check_str "byte-identical speedscope export" sa sb;
  check "folded export is non-trivial" true (String.length fa > 0);
  let fc, _ = exports (profiled_failover 8L) in
  check "different seed changes the profile" true (fa <> fc)

(* The profiler must be a pure observer: with it attached (vs not), the
   trace bytes, the final virtual clock and the post-run PRNG state of
   the same-seed run are all unchanged. *)
let traced_failover ~profile seed =
  let tr = Trace.Tracer.create ~capacity:65_536 () in
  let eng = ref None in
  let vts = ref [] in
  let setup =
    {
      E.seed;
      faults = None;
      on_engine =
        Some
          (fun e ->
            Trace.Tracer.attach tr e;
            eng := Some e;
            if profile then vts := Vt.attach e :: !vts);
    }
  in
  let (_ : E.failover_stats) = E.failover setup ~rounds:2 in
  List.iter Vt.finish !vts;
  match !eng with
  | None -> Alcotest.fail "on_engine never called"
  | Some e ->
    (Trace.Tracer.chrome_string tr, Sim.Engine.now e, Sim.Rng.int64 (Sim.Engine.rng e))

let profile_off_byte_identical () =
  let trace_off, now_off, draw_off = traced_failover ~profile:false 7L in
  let trace_on, now_on, draw_on = traced_failover ~profile:true 7L in
  check_str "trace bytes unchanged by profiler" trace_off trace_on;
  check_int "virtual clock unchanged by profiler" now_off now_on;
  check "PRNG stream unchanged by profiler" true (Int64.equal draw_off draw_on)

let profile_exact_sum () =
  let vts = profiled_failover 11L in
  let span = List.fold_left (fun a vt -> a + Vt.span_ns vt) 0 vts in
  let folded = Vt.folded vts in
  check "run has positive span" true (span > 0);
  check_int "exclusive weights sum exactly to the span" span (Vt.total_ns folded);
  List.iter
    (fun vt ->
      check_int "per-engine sum is exact" (Vt.span_ns vt) (Vt.total_ns (Vt.folded_of vt));
      check "idle bucket within span" true
        (Vt.idle_ns vt >= 0 && Vt.idle_ns vt <= Vt.span_ns vt))
    vts

(* Profiler off must add nothing to the per-event hot path: the same
   workload as the engine's resume-allocation regression test must stay
   within the same budget (the profiler hook is a single field check). *)
let profile_off_zero_allocation () =
  let e = Util.engine () in
  for _ = 1 to 8 do
    Sim.Engine.spawn e (fun () ->
        for _ = 1 to 5_000 do
          Sim.Engine.sleep e 100
        done)
  done;
  let w0 = Gc.minor_words () in
  Sim.Engine.run e;
  let per_sleep = (Gc.minor_words () -. w0) /. 40_000.0 in
  if per_sleep > 48.0 then
    Alcotest.failf "profile-off sleep path allocated %.1f minor words per sleep" per_sleep

(* --- compare gate -------------------------------------------------------- *)

let doc s =
  match J.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "test JSON does not parse: %s" e

let base_doc =
  doc
    {|{"schema":"mu-bench-results/1","seed":42,"quick":true,
       "replication_latency_ns":{"p50":1000,"p99":2000},
       "checks":[{"name":"smr_agree","ok":true}]}|}

let variant ~p99 ~ok =
  doc
    (Printf.sprintf
       {|{"schema":"mu-bench-results/1","seed":42,"quick":true,
          "replication_latency_ns":{"p50":1000,"p99":%d},
          "checks":[{"name":"smr_agree","ok":%b}]}|}
       p99 ok)

let compare_identical () =
  let r = Profile.Compare.run ~baseline:base_doc ~current:base_doc () in
  check "identical docs are comparable" true r.Profile.Compare.comparable;
  check "identical docs do not regress" false (Profile.Compare.regressed r);
  check "latency fields were compared" true (List.length r.Profile.Compare.fields >= 2);
  check "absent fields are skipped, not failed" true (r.Profile.Compare.skipped <> [])

let compare_regression () =
  let r =
    Profile.Compare.run ~baseline:base_doc ~current:(variant ~p99:3000 ~ok:true) ()
  in
  check "p99 +50%% beyond 10%% tolerance regresses" true (Profile.Compare.regressed r);
  let p99 =
    List.find
      (fun f -> f.Profile.Compare.f_path = "replication_latency_ns.p99")
      r.Profile.Compare.fields
  in
  check "the regressed field is flagged" true p99.Profile.Compare.f_regressed

let compare_within_tolerance () =
  let r =
    Profile.Compare.run ~baseline:base_doc ~current:(variant ~p99:2100 ~ok:true) ()
  in
  check "+5%% within 10%% tolerance passes" false (Profile.Compare.regressed r)

let compare_higher_is_better () =
  let rules =
    [ { Profile.Compare.r_path = [ "rate" ]; r_dir = `Higher_is_better; r_tol_pct = 10.0 } ]
  in
  let with_rate v =
    doc
      (Printf.sprintf {|{"schema":"mu-bench-results/1","seed":1,"quick":false,"rate":%d}|} v)
  in
  let worse =
    Profile.Compare.run ~rules ~baseline:(with_rate 100) ~current:(with_rate 80) ()
  in
  check "-20%% throughput beyond tolerance regresses" true (Profile.Compare.regressed worse);
  let fine =
    Profile.Compare.run ~rules ~baseline:(with_rate 100) ~current:(with_rate 95) ()
  in
  check "-5%% throughput within tolerance passes" false (Profile.Compare.regressed fine)

let compare_seed_mismatch () =
  let other = doc {|{"schema":"mu-bench-results/1","seed":43,"quick":true}|} in
  let r = Profile.Compare.run ~baseline:base_doc ~current:other () in
  check "seed mismatch is incomparable" false r.Profile.Compare.comparable;
  check "incomparable carries no verdict" false (Profile.Compare.regressed r);
  check "note explains why" true (r.Profile.Compare.note <> "")

let compare_check_broken () =
  let r =
    Profile.Compare.run ~baseline:base_doc ~current:(variant ~p99:2000 ~ok:false) ()
  in
  check "a check going ok->fail regresses" true (Profile.Compare.regressed r);
  check "the broken check is named" true
    (r.Profile.Compare.checks_broken = [ "smr_agree" ]);
  let gone =
    Profile.Compare.run ~baseline:base_doc
      ~current:
        (doc
           {|{"schema":"mu-bench-results/1","seed":42,"quick":true,
              "replication_latency_ns":{"p50":1000,"p99":2000},"checks":[]}|})
      ()
  in
  check "a vanished check does not regress" false (Profile.Compare.regressed gone);
  check "the vanished check is listed as skipped" true
    (List.mem "check smr_agree" gone.Profile.Compare.skipped);
  check "the report names it" true
    (Util.contains_substring (Profile.Compare.to_string gone) "check smr_agree ")

(* --- span pairing and frame totals ------------------------------------------ *)

let ev ts kind name = { Sim.Probe.ts; kind; name; cat = "t"; pid = 1; tid = 1; id = 0; args = [] }

(* Nested synchronous spans pair LIFO in Trace.Breakdown: parent open
   0..100 with a child 20..50. *)
let attrib_exclusive () =
  let bd = Trace.Breakdown.create () in
  Trace.Breakdown.add bd (ev 0 Sim.Probe.Span_begin "parent");
  Trace.Breakdown.add bd (ev 20 Sim.Probe.Span_begin "child");
  Trace.Breakdown.add bd (ev 50 Sim.Probe.Span_end "child");
  Trace.Breakdown.add bd (ev 100 Sim.Probe.Span_end "parent");
  check_int "all frames matched" 0 (Trace.Breakdown.unmatched bd);
  check_int "child inclusive" 30 (Trace.Breakdown.total_ns bd ~cat:"t" ~name:"child");
  check_int "parent inclusive" 100 (Trace.Breakdown.total_ns bd ~cat:"t" ~name:"parent")

let attrib_frame_totals () =
  let folded = [ ([ "parent" ], 70); ([ "parent"; "child" ], 30) ] in
  match Profile.Report.of_folded folded with
  | [ { frame = "child"; self_ns = cs; total_ns = ct };
      { frame = "parent"; self_ns = ps; total_ns = pt } ] ->
    check_int "child self" 30 cs;
    check_int "child total" 30 ct;
    check_int "parent self" 70 ps;
    check_int "parent total (self + child)" 100 pt
  | other -> Alcotest.failf "unexpected frame totals shape (%d rows)" (List.length other)

let suite =
  [
    Alcotest.test_case "same seed gives byte-identical exports" `Quick profile_deterministic;
    Alcotest.test_case "profiler attach does not perturb the run" `Quick
      profile_off_byte_identical;
    Alcotest.test_case "exclusive times sum exactly to the span" `Quick profile_exact_sum;
    Alcotest.test_case "profile off allocates nothing extra" `Quick
      profile_off_zero_allocation;
    Alcotest.test_case "compare: identical results pass" `Quick compare_identical;
    Alcotest.test_case "compare: beyond-tolerance regression fails" `Quick compare_regression;
    Alcotest.test_case "compare: within-tolerance drift passes" `Quick
      compare_within_tolerance;
    Alcotest.test_case "compare: higher-is-better direction" `Quick compare_higher_is_better;
    Alcotest.test_case "compare: seed mismatch is incomparable" `Quick compare_seed_mismatch;
    Alcotest.test_case "compare: broken check regresses" `Quick compare_check_broken;
    Alcotest.test_case "attrib: exclusive vs inclusive" `Quick attrib_exclusive;
    Alcotest.test_case "attrib: frame totals from folded stacks" `Quick attrib_frame_totals;
  ]

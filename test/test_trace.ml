(* lib/trace: ring-buffer bounds, breakdown pairing, Chrome export shape
   and the end-to-end determinism guarantee. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let ev ?(ts = 0) ?(cat = "c") ?(pid = 0) ?(tid = 0) ?(id = 0) ?(args = []) kind name =
  { Sim.Probe.ts; kind; name; cat; pid; tid; id; args }

(* --- ring buffer --------------------------------------------------------- *)

let ring_bounds () =
  let b = Trace.Buffer.create ~capacity:4 in
  for i = 1 to 10 do
    Trace.Buffer.add b (ev ~ts:i Sim.Probe.Instant "e")
  done;
  check_int "capacity" 4 (Trace.Buffer.capacity b);
  check_int "length capped" 4 (Trace.Buffer.length b);
  check_int "dropped" 6 (Trace.Buffer.dropped b);
  check_int "recorded" 10 (Trace.Buffer.recorded b);
  (* The newest window survives, oldest first. *)
  let ts = List.map (fun e -> e.Sim.Probe.ts) (Trace.Buffer.to_list b) in
  check "newest window in order" true (ts = [ 7; 8; 9; 10 ]);
  Trace.Buffer.clear b;
  check_int "cleared" 0 (Trace.Buffer.length b);
  check_int "cleared dropped" 0 (Trace.Buffer.dropped b)

(* --- breakdown accumulator ---------------------------------------------- *)

let breakdown_sync_pairing () =
  let bd = Trace.Breakdown.create () in
  (* Nested spans on one thread: outer [0,100], inner [10,30]. *)
  List.iter (Trace.Breakdown.add bd)
    [
      ev ~ts:0 Sim.Probe.Span_begin "outer";
      ev ~ts:10 Sim.Probe.Span_begin "inner";
      ev ~ts:30 Sim.Probe.Span_end "inner";
      ev ~ts:100 Sim.Probe.Span_end "outer";
    ];
  check_int "outer total" 100 (Trace.Breakdown.total_ns bd ~cat:"c" ~name:"outer");
  check_int "inner total" 20 (Trace.Breakdown.total_ns bd ~cat:"c" ~name:"inner");
  check_int "no unmatched" 0 (Trace.Breakdown.unmatched bd);
  (* Same span name on two threads does not cross-pair. *)
  let bd2 = Trace.Breakdown.create () in
  List.iter (Trace.Breakdown.add bd2)
    [
      ev ~ts:0 ~tid:1 Sim.Probe.Span_begin "s";
      ev ~ts:5 ~tid:2 Sim.Probe.Span_begin "s";
      ev ~ts:7 ~tid:1 Sim.Probe.Span_end "s";
      ev ~ts:50 ~tid:2 Sim.Probe.Span_end "s";
    ];
  let samples = Option.get (Trace.Breakdown.find bd2 ~cat:"c" ~name:"s") in
  check_int "two samples" 2 (Sim.Stats.Samples.count samples);
  check_int "durations 7+45" 52 (Trace.Breakdown.total_ns bd2 ~cat:"c" ~name:"s")

let breakdown_async_pairing () =
  let bd = Trace.Breakdown.create () in
  (* Async spans interleave freely; pairing is by (cat, name, id). *)
  List.iter (Trace.Breakdown.add bd)
    [
      ev ~ts:0 ~id:1 Sim.Probe.Async_begin "write";
      ev ~ts:2 ~id:2 Sim.Probe.Async_begin "write";
      ev ~ts:9 ~id:2 Sim.Probe.Async_end "write";
      ev ~ts:20 ~id:1 Sim.Probe.Async_end "write";
    ];
  check_int "total 20+7" 27 (Trace.Breakdown.total_ns bd ~cat:"c" ~name:"write");
  check_int "no unmatched" 0 (Trace.Breakdown.unmatched bd);
  (* An end with no begin counts unmatched, records nothing. *)
  Trace.Breakdown.add bd (ev ~ts:30 ~id:99 Sim.Probe.Async_end "write");
  check_int "unmatched end" 1 (Trace.Breakdown.unmatched bd);
  check_int "total unchanged" 27 (Trace.Breakdown.total_ns bd ~cat:"c" ~name:"write")

let breakdown_rows_sorted () =
  let bd = Trace.Breakdown.create () in
  List.iter (Trace.Breakdown.add bd)
    [
      ev ~ts:0 ~cat:"zz" Sim.Probe.Span_begin "a";
      ev ~ts:4 ~cat:"zz" Sim.Probe.Span_end "a";
      ev ~ts:0 ~cat:"aa" Sim.Probe.Span_begin "b";
      ev ~ts:6 ~cat:"aa" Sim.Probe.Span_end "b";
    ];
  let keys = List.map (fun (c, n, _, _) -> (c, n)) (Trace.Breakdown.rows bd) in
  check "rows sorted by (cat, name)" true (keys = [ ("aa", "b"); ("zz", "a") ]);
  check "absent row is 0" true (Trace.Breakdown.total_ns bd ~cat:"nope" ~name:"x" = 0);
  let table = Fmt.str "%a" Trace.Breakdown.pp bd in
  check "pp includes both rows" true (contains table "zz" && contains table "aa")

(* --- chrome export ------------------------------------------------------- *)

let chrome_event_shape () =
  let events =
    [
      ev ~ts:1_234_567 ~cat:"mu" ~pid:2 ~tid:3 Sim.Probe.Span_begin "propose";
      ev ~ts:1_300_000 ~cat:"mu" ~pid:2 ~tid:3 Sim.Probe.Span_end "propose";
      ev ~ts:5_000 ~cat:"rdma" ~pid:0 ~id:77 ~args:[ ("len", "8") ]
        Sim.Probe.Async_begin "read";
      ev ~ts:9_999 ~pid:(-1) Sim.Probe.Instant "jit\"ter";
      ev ~ts:0 ~cat:"mu" ~pid:1 ~args:[ ("value", "42") ] Sim.Probe.Counter "fuo";
    ]
  in
  let json =
    Trace.Chrome.to_string
      ~processes:[ (2, "replica-2") ]
      ~threads:[ ((2, 3), "smr") ]
      events
  in
  let has sub = contains json sub in
  (* Timestamps are fixed-point microseconds with exactly 3 decimals. *)
  check "B phase, fixed-point us" true
    (has "\"ph\":\"B\",\"ts\":1234.567,\"pid\":2,\"tid\":3");
  check "E phase" true (has "\"ph\":\"E\",\"ts\":1300.000");
  check "async id rendered as hex" true (has "\"ph\":\"b\"" && has "\"id\":\"0x4d\"");
  check "numeric arg unquoted" true (has "\"args\":{\"len\":8}");
  check "instant is thread-scoped" true (has "\"ph\":\"i\"" && has "\"s\":\"t\"");
  check "quote escaped in name" true (has "jit\\\"ter");
  check "pid -1 maps to synthetic engine pid" true
    (has (Printf.sprintf "\"pid\":%d" Trace.Chrome.engine_pid));
  check "counter phase" true (has "\"ph\":\"C\"" && has "\"args\":{\"value\":42}");
  check "process metadata" true
    (has "\"process_name\"" && has "\"args\":{\"name\":\"replica-2\"}");
  check "thread metadata" true (has "\"thread_name\"" && has "\"name\":\"smr\"");
  check "trailer" true (has "\"displayTimeUnit\":\"ns\"")

(* --- tracer attached to a live engine ------------------------------------ *)

let tracer_engine_integration () =
  let tr = Trace.Tracer.create ~capacity:1024 () in
  let _e =
    Util.run_scenario (fun e ->
        Trace.Tracer.attach tr e;
        let h = Util.host e ~id:0 in
        Sim.Host.spawn h ~name:"worker" (fun () ->
            Sim.Engine.trace_span e ~cat:"test" ~pid:(Sim.Host.id h) "work"
              (fun () -> Sim.Engine.sleep e 1_000)))
  in
  check "recorded something" true (Trace.Tracer.recorded tr > 0);
  check_int "work span lasted the sleep" 1_000
    (Trace.Breakdown.total_ns (Trace.Tracer.breakdown tr) ~cat:"test" ~name:"work");
  (* Host.create registered the process name; spawn registered the fiber. *)
  check "process registered" true
    (List.mem_assoc 0 (Trace.Tracer.processes tr));
  check "some thread registered" true (Trace.Tracer.threads tr <> []);
  (* Span end survives an aborting body. *)
  let tr2 = Trace.Tracer.create () in
  let _e =
    Util.run_scenario (fun e ->
        Trace.Tracer.attach tr2 e;
        Sim.Engine.spawn e ~name:"crash" (fun () ->
            try
              Sim.Engine.trace_span e ~cat:"test" "doomed" (fun () ->
                  Sim.Engine.sleep e 500;
                  failwith "boom")
            with Failure _ -> ()))
  in
  check_int "span closed on raise" 500
    (Trace.Breakdown.total_ns (Trace.Tracer.breakdown tr2) ~cat:"test" ~name:"doomed")

(* --- determinism + fail-over share --------------------------------------- *)

module E = Workload.Experiments

let run_traced_failover seed =
  let tr = Trace.Tracer.create () in
  let setup = { E.seed; faults = None; on_engine = Some (Trace.Tracer.attach tr) } in
  let (_ : E.failover_stats) = E.failover setup ~rounds:2 in
  tr

let failover_trace_deterministic () =
  let a = run_traced_failover 42L and b = run_traced_failover 42L in
  check "equal event counts" true (Trace.Tracer.recorded a = Trace.Tracer.recorded b);
  check_str "byte-identical chrome export"
    (Trace.Tracer.chrome_string a) (Trace.Tracer.chrome_string b);
  (* A different seed must actually change the stream (guards against the
     exporter ignoring its input). *)
  let c = run_traced_failover 43L in
  check "different seed differs" true
    (Trace.Tracer.chrome_string a <> Trace.Tracer.chrome_string c)

(* The quick fig3 sweep (bench --quick --only fig3): every payload and
   attach mode at 5000 samples, into one trace. *)
let run_traced_fig3 seed =
  let tr = Trace.Tracer.create () in
  let setup = { E.seed; faults = None; on_engine = Some (Trace.Tracer.attach tr) } in
  List.iter
    (fun (payload, attach) ->
      ignore (E.mu_replication_latency setup ~samples:5_000 ~payload ~attach))
    [
      (32, Mu.Config.Standalone); (64, Mu.Config.Standalone); (128, Mu.Config.Standalone);
      (256, Mu.Config.Standalone); (512, Mu.Config.Standalone); (32, Mu.Config.Direct);
      (50, Mu.Config.Direct); (64, Mu.Config.Handover); (64, Mu.Config.Handover);
    ];
  tr

let fig3_trace_deterministic () =
  let a = run_traced_fig3 42L and b = run_traced_fig3 42L in
  check "equal event counts" true (Trace.Tracer.recorded a = Trace.Tracer.recorded b);
  check_str "byte-identical chrome export"
    (Trace.Tracer.chrome_string a) (Trace.Tracer.chrome_string b)

let failover_phase_breakdown () =
  let tr = run_traced_failover 7L in
  let bd = Trace.Tracer.breakdown tr in
  let total = Trace.Breakdown.total_ns bd ~cat:"failover" ~name:"total" in
  let detect = Trace.Breakdown.total_ns bd ~cat:"failover" ~name:"detect" in
  let switch = Trace.Breakdown.total_ns bd ~cat:"failover" ~name:"perm_switch" in
  check "phases recorded" true (total > 0 && detect > 0 && switch > 0);
  check "phases partition the total" true (detect + switch <= total);
  (* Paper Fig. 6: permission switching is roughly 30% of fail-over; the
     bench asserts 25-35%, here we only need the decomposition sane. *)
  let share = 100. *. float_of_int switch /. float_of_int total in
  check "perm_switch share plausible" true (share > 10. && share < 60.);
  check "no unmatched failover spans" true (Trace.Breakdown.unmatched bd = 0)

let suite =
  [
    Alcotest.test_case "ring bounds" `Quick ring_bounds;
    Alcotest.test_case "breakdown sync pairing" `Quick breakdown_sync_pairing;
    Alcotest.test_case "breakdown async pairing" `Quick breakdown_async_pairing;
    Alcotest.test_case "breakdown rows sorted" `Quick breakdown_rows_sorted;
    Alcotest.test_case "chrome event shape" `Quick chrome_event_shape;
    Alcotest.test_case "tracer on live engine" `Quick tracer_engine_integration;
    Alcotest.test_case "trace determinism" `Quick failover_trace_deterministic;
    Alcotest.test_case "fig3 latency trace determinism" `Quick fig3_trace_deterministic;
    Alcotest.test_case "failover phase breakdown" `Quick failover_phase_breakdown;
  ]

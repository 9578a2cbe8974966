(* Tests for the serving tier: the open-loop population model, the
   shard router, doorbell batching in Mu.Smr, tier admission control,
   the serving-off PRNG-isolation regression, and Mu.Sharded under
   chaos. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- arrival-process samplers ------------------------------------------- *)

let poisson_gap_mean () =
  let rng = Sim.Rng.create 11L in
  let rate = 0.001 (* one arrival per microsecond *) in
  let n = 20_000 in
  let total = ref 0 in
  for _ = 1 to n do
    let g = Workload.Generators.poisson_gap rng ~rate in
    check "gap positive" true (g >= 1);
    total := !total + g
  done;
  let mean = float_of_int !total /. float_of_int n in
  check "mean near 1/rate" true (mean > 900.0 && mean < 1_100.0)

let diurnal_rate_bounds () =
  let base = 10.0 and amplitude = 0.5 and period_ns = 1_000_000 in
  let lo = ref infinity and hi = ref neg_infinity and sum = ref 0.0 in
  let steps = 1_000 in
  for i = 0 to steps - 1 do
    let r =
      Workload.Generators.diurnal_rate ~base ~amplitude ~period_ns
        ~now:(i * period_ns / steps)
    in
    if r < !lo then lo := r;
    if r > !hi then hi := r;
    sum := !sum +. r
  done;
  check "min near base*(1-a)" true (!lo > 4.9 && !lo < 5.5);
  check "max near base*(1+a)" true (!hi > 14.5 && !hi < 15.1);
  let mean = !sum /. float_of_int steps in
  check "mean near base" true (mean > 9.5 && mean < 10.5)

(* --- population --------------------------------------------------------- *)

let population_deterministic () =
  let draw seed =
    let pop =
      Serving.Population.create ~clients:50_000 ~think_ns:1_000_000
        (Sim.Rng.create seed)
    in
    List.init 500 (fun i ->
        let a = Serving.Population.next pop ~now:(i * 1_000) in
        (a.Serving.Population.gap_ns, a.Serving.Population.client,
         a.Serving.Population.key))
  in
  check "same seed, same arrivals" true (draw 3L = draw 3L);
  check "different seed differs" true (draw 3L <> draw 4L)

let population_zipf_skew () =
  let pop =
    Serving.Population.create ~keys:1_000 ~clients:1_000_000 ~think_ns:10_000_000
      (Sim.Rng.create 5L)
  in
  let counts = Hashtbl.create 64 in
  for i = 0 to 19_999 do
    let a = Serving.Population.next pop ~now:(i * 10) in
    let k = a.Serving.Population.key in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  (* Under Zipf 0.99 the head key draws a large share. *)
  let head = Option.value ~default:0 (Hashtbl.find_opt counts "key-00000000") in
  check "head key dominates" true (head > 1_000);
  check_int "arrivals counted" 20_000 (Serving.Population.arrivals pop)

let population_think_gate () =
  (* Two clients at an offered rate far beyond what two serial clients
     can generate: most picks land on thinking clients and the
     suppressed counter must show it. *)
  let pop =
    Serving.Population.create ~clients:2 ~think_ns:1_000_000 (Sim.Rng.create 6L)
  in
  let now = ref 0 in
  for _ = 1 to 200 do
    let a = Serving.Population.next pop ~now:!now in
    now := !now + a.Serving.Population.gap_ns
  done;
  check "saturated population suppresses picks" true
    (Serving.Population.suppressed pop > 50)

let population_diurnal_modulates_rate () =
  let period_ns = 1_000_000 in
  let pop =
    Serving.Population.create
      ~process:(Serving.Population.Diurnal { period_ns; amplitude = 0.8 })
      ~clients:100_000 ~think_ns:1_000_000 (Sim.Rng.create 7L)
  in
  let peak = Serving.Population.rate pop ~now:(period_ns / 4) in
  let trough = Serving.Population.rate pop ~now:(3 * period_ns / 4) in
  check "peak well above trough" true (peak > 4.0 *. trough)

(* --- router ------------------------------------------------------------- *)

let router_agrees_with_sharded () =
  Util.run_fiber (fun e ->
      let s =
        Mu.Sharded.create e Util.default_cal Mu.Config.default ~shards:8
          ~make_app:(fun ~shard:_ ~replica:_ -> Mu.Smr.stateless_app Fun.id)
      in
      let router = Serving.Router.create ~shards:8 in
      for i = 0 to 499 do
        let key = Printf.sprintf "key-%08d" i in
        check_int "router matches cluster routing"
          (Mu.Sharded.shard_of_key s key)
          (Serving.Router.route router key)
      done)

(* The routing hash is part of every shard mapping: pin it. *)
let key_hash_pinned () =
  List.iter
    (fun (key, h) -> check_int key h (Mu.Sharded.key_hash key))
    [
      ("", 5381);
      ("a", 177670);
      ("key-00000000", 1032285691);
      ("key-00012345", 1033546890);
      ("key-99999999", 373976515);
      ("a much longer key that wraps the 30-bit mask many times", 278260372);
    ]

let chaos_keys_route_to_shard () =
  Alcotest.(check (array string))
    "one shard: the single-group keys" [| "a"; "b"; "c" |]
    (Workload.Chaos.keys_for ~shards:1 ~shard:0 ~count:3);
  let shards = 4 in
  for shard = 0 to shards - 1 do
    let keys = Workload.Chaos.keys_for ~shards ~shard ~count:3 in
    check_int "enough keys" 3 (Array.length keys);
    Array.iter
      (fun k -> check_int "routes to shard" shard (Mu.Sharded.key_hash k mod shards))
      keys
  done

(* --- satellite 2: serving-off runs must not touch the engine PRNG ------- *)

let serving_off_trace_unperturbed () =
  (* Two identical traced Smr runs; the second also constructs serving
     objects (population, router) from their own explicit rng before and
     during the run. Trace bytes must be identical: serving machinery
     draws from the engine stream only when a serving run wires it in. *)
  let run ~with_serving =
    let tracer = Trace.Tracer.create () in
    let e = Sim.Engine.create ~seed:99L () in
    Trace.Tracer.attach tracer e;
    if with_serving then begin
      let pop =
        Serving.Population.create ~clients:100_000 ~think_ns:1_000_000
          (Sim.Rng.create 1234L)
      in
      ignore (Serving.Population.next pop ~now:0);
      ignore (Serving.Router.create ~shards:8)
    end;
    let smr =
      Mu.Smr.create e Util.default_cal Mu.Config.default ~make_app:(fun _ ->
          Mu.Smr.stateless_app Fun.id)
    in
    Mu.Smr.start smr;
    Sim.Engine.spawn e ~name:"client" (fun () ->
        Mu.Smr.wait_live smr;
        (if with_serving then
           let pop2 =
             Serving.Population.create ~clients:1_000 ~think_ns:1_000
               (Sim.Rng.create 77L)
           in
           ignore (Serving.Population.next pop2 ~now:(Sim.Engine.now e)));
        for i = 1 to 10 do
          ignore (Mu.Smr.submit smr (Bytes.of_string (Printf.sprintf "req%d" i)))
        done;
        Mu.Smr.stop smr;
        Sim.Engine.halt e);
    Sim.Engine.run ~until:60_000_000_000 e;
    Trace.Tracer.events tracer
  in
  check "serving-off trace bytes unperturbed" true
    (run ~with_serving:false = run ~with_serving:true)

(* --- doorbell batching -------------------------------------------------- *)

let doorbell_config_default_off () =
  check_int "default doorbell off" 1 Mu.Config.default.Mu.Config.doorbell;
  check "validate rejects doorbell < 1" true
    (try
       Mu.Config.validate { Mu.Config.default with Mu.Config.doorbell = 0 };
       false
     with Invalid_argument _ -> true)

let doorbell_cfg =
  {
    Mu.Config.default with
    Mu.Config.max_batch = 4;
    max_outstanding = 3;
    doorbell = 4;
  }

let doorbell_commits_and_responds () =
  Util.run_scenario ~until:60_000_000_000 (fun e ->
      let smr =
        Mu.Smr.create e Util.default_cal doorbell_cfg ~make_app:(fun _ ->
            Mu.Smr.stateless_app Fun.id)
      in
      Mu.Smr.start smr;
      let finished = ref 0 and clients = 3 and ops = 40 in
      for c = 1 to clients do
        Sim.Engine.spawn e ~name:(Printf.sprintf "client%d" c) (fun () ->
            Mu.Smr.wait_live smr;
            for i = 1 to ops do
              let payload = Bytes.of_string (Printf.sprintf "c%d-%d" c i) in
              let reply = Mu.Smr.submit smr payload in
              check "echo reply matches payload" true (Bytes.equal reply payload)
            done;
            incr finished;
            if !finished = clients then begin
              Mu.Smr.stop smr;
              Sim.Engine.halt e
            end)
      done)
  |> fun e ->
  ignore e

let doorbell_faster_when_saturated () =
  (* Doorbell batching pays off when the queue is deep: flood the leader
     with one open-loop burst and time until the last reply lands. With a
     saturated queue one wire write covers several slots, so the doorbell
     run must drain the burst strictly faster than per-slot pipelining. *)
  let burst = 256 in
  let finish_time cfg =
    let done_at = ref 0 in
    let (_ : Sim.Engine.t) =
      Util.run_scenario ~until:60_000_000_000 ~seed:13L (fun e ->
          let smr =
            Mu.Smr.create e Util.default_cal cfg ~make_app:(fun _ ->
                Mu.Smr.stateless_app Fun.id)
          in
          Mu.Smr.start smr;
          Sim.Engine.spawn e ~name:"burst" (fun () ->
              Mu.Smr.wait_live smr;
              let ivars =
                List.init burst (fun i ->
                    Mu.Smr.submit_async smr (Bytes.of_string (Printf.sprintf "b%04d" i)))
              in
              List.iter (fun iv -> ignore (Sim.Engine.Ivar.read iv)) ivars;
              done_at := Sim.Engine.now e;
              Mu.Smr.stop smr;
              Sim.Engine.halt e))
    in
    !done_at
  in
  let plain = finish_time { doorbell_cfg with Mu.Config.doorbell = 1 } in
  let doorbell = finish_time doorbell_cfg in
  check "doorbell run completes" true (doorbell > 0);
  check "plain run completes" true (plain > 0);
  check "doorbell drains burst faster" true (doorbell < plain)

let doorbell_survives_log_wrap () =
  (* A small ring forces the doorbell groups across the wrap boundary
     many times; every request must still get its own response. *)
  let cfg =
    {
      doorbell_cfg with
      Mu.Config.log_slots = 128;
      recycle_slack = 32;
      recycle_interval = 100_000;
    }
  in
  Util.run_scenario ~until:60_000_000_000 (fun e ->
      let smr =
        Mu.Smr.create e Util.default_cal cfg ~make_app:(fun _ ->
            Mu.Smr.stateless_app Fun.id)
      in
      Mu.Smr.start smr;
      let finished = ref 0 and clients = 4 and ops = 120 in
      for c = 1 to clients do
        Sim.Engine.spawn e ~name:(Printf.sprintf "client%d" c) (fun () ->
            Mu.Smr.wait_live smr;
            for i = 1 to ops do
              let payload = Bytes.of_string (Printf.sprintf "w%d-%d" c i) in
              let reply = Mu.Smr.submit smr payload in
              check "reply matches across wrap" true (Bytes.equal reply payload)
            done;
            incr finished;
            if !finished = clients then begin
              let violations = Mu.Invariants.check_all (Mu.Smr.replicas smr) in
              check "invariants clean" true (violations = []);
              Mu.Smr.stop smr;
              Sim.Engine.halt e
            end)
      done)
  |> ignore

let doorbell_deterministic () =
  let run () =
    let tracer = Trace.Tracer.create () in
    let e = Sim.Engine.create ~seed:21L () in
    Trace.Tracer.attach tracer e;
    let smr =
      Mu.Smr.create e Util.default_cal doorbell_cfg ~make_app:(fun _ ->
          Mu.Smr.stateless_app Fun.id)
    in
    Mu.Smr.start smr;
    Sim.Engine.spawn e ~name:"client" (fun () ->
        Mu.Smr.wait_live smr;
        for i = 1 to 60 do
          ignore (Mu.Smr.submit smr (Bytes.of_string (Printf.sprintf "r%d" i)))
        done;
        Mu.Smr.stop smr;
        Sim.Engine.halt e);
    Sim.Engine.run ~until:60_000_000_000 e;
    Trace.Tracer.events tracer
  in
  check "doorbell runs byte-identical per seed" true (run () = run ())

(* The windowed loop with one-request batches: 4 groups of up to 4 slots
   outstanding. *)
let windowed_cfg = { Mu.Config.default with Mu.Config.max_outstanding = 4; doorbell = 4 }

let windowed_idle_pickup () =
  (* An idle windowed leader waits on its queue, not on its completion
     queue: a request that lands after a quiet spell longer than the
     failure detector's read interval (40 us) is replicated at once
     instead of sitting out the rest of that interval. *)
  let latencies = ref [] in
  Util.run_scenario ~until:60_000_000_000 (fun e ->
      let smr =
        Mu.Smr.create e Util.default_cal windowed_cfg ~make_app:(fun _ ->
            Mu.Smr.stateless_app Fun.id)
      in
      Mu.Smr.start smr;
      Sim.Engine.spawn e ~name:"client" (fun () ->
          Mu.Smr.wait_live smr;
          for i = 1 to 5 do
            Sim.Engine.sleep e (50_000 + (i * 13_000));
            let t0 = Sim.Engine.now e in
            ignore (Mu.Smr.submit smr (Bytes.of_string (Printf.sprintf "idle%d" i)));
            latencies := (Sim.Engine.now e - t0) :: !latencies
          done;
          Mu.Smr.stop smr;
          Sim.Engine.halt e))
  |> ignore;
  check_int "every idle submit answered" 5 (List.length !latencies);
  List.iter
    (fun ns -> check "reply within 5 us of an idle submit" true (ns <= 5_000))
    !latencies

let windowed_readmits_rejoined_follower () =
  (* A follower restarted under a busy windowed leader rejoins at log
     parity and asks the leader to grow its confirmed followers; the
     leader must re-establish and take it back, or the cluster keeps
     serving one failure away from a stall. *)
  let readmitted = ref false in
  Util.run_scenario ~until:60_000_000_000 (fun e ->
      let smr =
        Mu.Smr.create e Util.default_cal windowed_cfg ~make_app:(fun _ ->
            Mu.Smr.stateless_app Fun.id)
      in
      Mu.Smr.start smr;
      Sim.Engine.spawn e ~name:"client" (fun () ->
          Mu.Smr.wait_live smr;
          let leader = Option.get (Mu.Smr.serving_leader smr) in
          let victim = (leader.Mu.Replica.id + 1) mod 3 in
          let traffic n =
            for i = 1 to n do
              ignore (Mu.Smr.submit smr (Bytes.of_string (Printf.sprintf "t%d" i)))
            done
          in
          traffic 20;
          Sim.Host.stop_process (Mu.Smr.replica smr victim).Mu.Replica.host;
          traffic 20;
          Mu.Smr.restart_replica smr ~id:victim;
          Util.wait_for (fun () -> Mu.Smr.rejoins smr <> []) e;
          let deadline = Sim.Engine.now e + 50_000_000 in
          while
            (not (List.mem victim leader.Mu.Replica.confirmed))
            && Sim.Engine.now e < deadline
          do
            traffic 5
          done;
          readmitted := List.mem victim leader.Mu.Replica.confirmed;
          Mu.Smr.stop smr;
          Sim.Engine.halt e))
  |> ignore;
  check "rejoined follower is confirmed again" true !readmitted

(* A straggler (§4.2): r1 is paused while r0 establishes, so r0 settles
   on {2}. Resumed, r1's permission fiber acks the still-pending request,
   and the next request the leader picks up admits r1 — brought up to
   date, then fed new entries. Run under the default window of one slot
   and under a window of 4 groups of 4 slots. *)
let leader_admits_straggler cfg () =
  let seen = Array.make 3 [] in
  let settled = ref [] and grown = ref [] in
  Util.run_scenario ~until:60_000_000_000 (fun e ->
      let smr =
        Mu.Smr.create e Util.default_cal cfg ~make_app:(fun id ->
            Mu.Smr.stateless_app (fun req ->
                seen.(id) <- Bytes.to_string req :: seen.(id);
                req))
      in
      Mu.Smr.start smr;
      let r0 = Mu.Smr.replica smr 0 and r1 = Mu.Smr.replica smr 1 in
      Sim.Engine.spawn e ~name:"client" (fun () ->
          Sim.Host.pause r1.Mu.Replica.host;
          Mu.Smr.wait_live smr;
          ignore (Mu.Smr.submit smr (Bytes.of_string "a"));
          settled := r0.Mu.Replica.confirmed;
          Sim.Host.resume r1.Mu.Replica.host;
          Sim.Engine.sleep e 2_000_000;
          ignore (Mu.Smr.submit smr (Bytes.of_string "b"));
          grown := r0.Mu.Replica.confirmed;
          ignore (Mu.Smr.submit smr (Bytes.of_string "c"));
          Sim.Engine.sleep e 1_000_000;
          Mu.Smr.stop smr;
          Sim.Engine.halt e))
  |> ignore;
  Alcotest.(check (list int)) "settled on a majority" [ 2 ] !settled;
  Alcotest.(check (list int)) "straggler admitted" [ 1; 2 ] !grown;
  (* A follower applies an entry once the next one lands, so "c" only
     tells it that "b" was decided. *)
  Alcotest.(check (list string)) "straggler applied old and new entries" [ "a"; "b" ]
    (List.rev seen.(1))

(* Every leader commit feeds the commit telemetry, whichever path made
   it: the establish no-op propose or a window group. The trace's fuo
   counter marks each commit once, so it counts both. *)
let window_commits_feed_telemetry () =
  let reg = Telemetry.Registry.create () in
  let tracer = Trace.Tracer.create () in
  let leader = ref None in
  Util.run_scenario ~until:60_000_000_000 (fun e ->
      Sim.Engine.set_metrics e reg;
      Trace.Tracer.attach tracer e;
      let smr =
        Mu.Smr.create e Util.default_cal (Serving.Surface.config ~batch:8 ~doorbell:4)
          ~make_app:(fun _ -> Mu.Smr.stateless_app Fun.id)
      in
      Mu.Smr.start smr;
      Sim.Engine.spawn e ~name:"load" (fun () ->
          Mu.Smr.wait_live smr;
          leader := Mu.Smr.leader smr;
          let left = ref 16 in
          for c = 1 to 16 do
            Sim.Engine.spawn e ~name:"client" (fun () ->
                for i = 1 to 20 do
                  ignore (Mu.Smr.submit smr (Bytes.of_string (Printf.sprintf "c%d-%d" c i)))
                done;
                decr left;
                if !left = 0 then begin
                  Mu.Smr.stop smr;
                  Sim.Engine.halt e
                end)
          done))
  |> ignore;
  let l = Option.get !leader in
  let labels = [ ("replica", string_of_int l.Mu.Replica.id) ] in
  let hist name =
    match Telemetry.Registry.find reg ~labels name with
    | Some { Telemetry.Registry.kind = Telemetry.Registry.Histogram h; _ } ->
      Telemetry.Hdr.count h
    | _ -> Alcotest.failf "%s not registered" name
  in
  let commits =
    List.length
      (List.filter
         (fun (ev : Sim.Probe.event) ->
           ev.kind = Sim.Probe.Counter && ev.name = "fuo" && ev.pid = l.Mu.Replica.id)
         (Trace.Tracer.events tracer))
  in
  check_int "no trace drops" 0 (Trace.Tracer.dropped tracer);
  check "groups batched requests" true (commits > 1 && commits < 320);
  check_int "one mu_commit_apply_ns sample per commit" commits (hist "mu_commit_apply_ns");
  check_int "one mu_replication_latency_ns sample per commit" commits
    (hist "mu_replication_latency_ns");
  match Telemetry.Registry.find reg ~labels "mu_fuo" with
  | Some { Telemetry.Registry.kind = Telemetry.Registry.Gauge g; _ } ->
    check_int "mu_fuo is the leader's FUO" (Mu.Log.fuo l.Mu.Replica.log)
      (Telemetry.Registry.Gauge.value g)
  | _ -> Alcotest.fail "mu_fuo not registered"

(* --- tier --------------------------------------------------------------- *)

let tier_setup seed = { Workload.Experiments.default_setup with seed }

let tier_smoke () =
  let report =
    Workload.Experiments.run_sim (tier_setup 31L) ~until:10_000_000_000 (fun e ->
        let population =
          Serving.Population.create ~clients:20_000 ~think_ns:10_000_000
            (Sim.Rng.split (Sim.Engine.rng e))
        in
        Serving.Tier.run e Util.default_cal
          { Mu.Config.default with Mu.Config.max_outstanding = 2 }
          ~shards:2 ~population ~duration:300_000 ())
  in
  check "arrivals generated" true (report.Serving.Tier.offered > 100);
  check "some requests completed" true (report.Serving.Tier.completed > 0);
  check "accounting consistent" true
    (report.Serving.Tier.completed + report.Serving.Tier.shed
    <= report.Serving.Tier.offered);
  check "throughput positive" true (report.Serving.Tier.committed_per_us > 0.0);
  check_int "per-shard reports" 2 (List.length report.Serving.Tier.per_shard);
  let sum_committed =
    List.fold_left
      (fun acc r -> acc + r.Serving.Tier.committed)
      0 report.Serving.Tier.per_shard
  in
  check_int "per-shard sums to total" report.Serving.Tier.completed sum_committed

let tier_sheds_under_pressure () =
  let report =
    Workload.Experiments.run_sim (tier_setup 32L) ~until:10_000_000_000 (fun e ->
        let population =
          (* ~50 req/us offered against one unbatched shard. *)
          Serving.Population.create ~clients:500_000 ~think_ns:10_000_000
            (Sim.Rng.split (Sim.Engine.rng e))
        in
        Serving.Tier.run e Util.default_cal Mu.Config.default ~shards:1 ~population
          ~duration:200_000 ~admit_limit:8 ())
  in
  check "admission sheds under overload" true (report.Serving.Tier.shed > 0);
  check "still commits some" true (report.Serving.Tier.completed > 0)

let tier_deterministic () =
  let run () =
    Workload.Experiments.run_sim (tier_setup 33L) ~until:10_000_000_000 (fun e ->
        let population =
          Serving.Population.create ~clients:50_000 ~think_ns:10_000_000
            (Sim.Rng.split (Sim.Engine.rng e))
        in
        let r =
          Serving.Tier.run e Util.default_cal
            (Serving.Surface.config ~batch:4 ~doorbell:4)
            ~shards:2 ~population ~duration:200_000 ()
        in
        (r.Serving.Tier.offered, r.Serving.Tier.completed, r.Serving.Tier.shed,
         r.Serving.Tier.p99_ns))
  in
  check "tier runs deterministic per seed" true (run () = run ())

(* The bench's quick serving surface (`bench/main.exe --quick --seed 42
   --only serving`), run twice in process: the Zipf/Poisson population,
   router, admission control and windowed doorbell replication must
   give byte-identical traces and identical points, and batching must
   pay off at every shard count. *)
let quick_surface () =
  let tracer = Trace.Tracer.create () in
  let setup =
    { (tier_setup 42L) with Workload.Experiments.on_engine = Some (Trace.Tracer.attach tracer) }
  in
  let points =
    Serving.Surface.sweep setup ~shard_counts:[ 1; 2; 4 ] ~batches:[ 1; 8 ]
      ~clients:200_000 ~think_ns:10_000_000 ~duration:1_000_000
  in
  (points, Trace.Tracer.recorded tracer, Trace.Tracer.chrome_string tracer)

let surface_deterministic () =
  let points, recorded, trace = quick_surface () in
  let points', recorded', trace' = quick_surface () in
  check_int "same event count" recorded recorded';
  check "traces byte-identical" true (String.equal trace trace');
  check "points identical" true (points = points');
  check "batch 8 out-commits batch 1 at every shard count" true
    (Serving.Surface.batching_beats_unbatched points ~batch:8)

(* --- sharded chaos: rows of the chaos table ---------------------------- *)

(* The same faults with the windowed leader loop serving: batches of 8,
   doorbell groups of 4 slots, 4 groups outstanding. *)
let windowed = Serving.Surface.config ~batch:8 ~doorbell:4

let sharded_chaos ?config ?rejoin name () =
  Util.chaos_row ~min_ops:80 ?rejoin (Util.chaos_sharded ?config name)

let suite =
  [
    ("poisson gap mean", `Quick, poisson_gap_mean);
    ("diurnal rate bounds", `Quick, diurnal_rate_bounds);
    ("population deterministic", `Quick, population_deterministic);
    ("population zipf skew", `Quick, population_zipf_skew);
    ("population think gate", `Quick, population_think_gate);
    ("population diurnal rate", `Quick, population_diurnal_modulates_rate);
    ("router agrees with sharded", `Quick, router_agrees_with_sharded);
    ("key hash pinned", `Quick, key_hash_pinned);
    ("chaos keys route to shard", `Quick, chaos_keys_route_to_shard);
    ("serving-off trace unperturbed", `Quick, serving_off_trace_unperturbed);
    ("doorbell default off", `Quick, doorbell_config_default_off);
    ("doorbell commits and responds", `Quick, doorbell_commits_and_responds);
    ("doorbell faster when saturated", `Quick, doorbell_faster_when_saturated);
    ("doorbell survives log wrap", `Quick, doorbell_survives_log_wrap);
    ("doorbell deterministic", `Quick, doorbell_deterministic);
    ("windowed leader picks up after idle", `Quick, windowed_idle_pickup);
    ("windowed leader readmits rejoined follower", `Quick,
     windowed_readmits_rejoined_follower);
    ("leader admits straggler", `Quick, leader_admits_straggler Mu.Config.default);
    ("windowed leader admits straggler", `Quick, leader_admits_straggler windowed_cfg);
    ("window commits feed telemetry", `Quick, window_commits_feed_telemetry);
    ("tier smoke", `Quick, tier_smoke);
    ("tier sheds under pressure", `Quick, tier_sheds_under_pressure);
    ("tier deterministic", `Quick, tier_deterministic);
    ("surface deterministic, batching wins", `Quick, surface_deterministic);
    ("sharded chaos: kill-restart", `Quick, sharded_chaos ~rejoin:true "kill-restart");
    ("sharded chaos: partition", `Quick, sharded_chaos "partition-leader");
    ("windowed chaos: kill-restart", `Quick, sharded_chaos ~config:windowed ~rejoin:true "kill-restart");
    ("windowed chaos: partition", `Quick, sharded_chaos ~config:windowed "partition-leader");
  ]

(* Tests for the simulation substrate: PRNG, distributions, statistics,
   event heap, engine/fibers, hosts. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Rng ---------------------------------------------------------------- *)

let rng_deterministic () =
  let a = Sim.Rng.create 42L and b = Sim.Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.int64 a) (Sim.Rng.int64 b)
  done

let rng_seed_sensitivity () =
  let a = Sim.Rng.create 1L and b = Sim.Rng.create 2L in
  check "different seeds differ" true (Sim.Rng.int64 a <> Sim.Rng.int64 b)

let rng_float_range () =
  let r = Sim.Rng.create 3L in
  for _ = 1 to 10_000 do
    let f = Sim.Rng.float r in
    check "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let rng_int_range () =
  let r = Sim.Rng.create 4L in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int r 17 in
    check "in range" true (v >= 0 && v < 17)
  done

let rng_int_rejects_bad_bound () =
  let r = Sim.Rng.create 5L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Sim.Rng.int r 0))

let rng_split_independent () =
  (* Draws from the parent after the split must not perturb the child. *)
  let parent = Sim.Rng.create 6L in
  let child = Sim.Rng.split parent in
  let c1 = Sim.Rng.int64 child in
  let parent2 = Sim.Rng.create 6L in
  let child2 = Sim.Rng.split parent2 in
  for _ = 1 to 10 do
    ignore (Sim.Rng.int64 parent2)
  done;
  Alcotest.(check int64) "child stream stable" c1 (Sim.Rng.int64 child2)

let rng_gaussian_moments () =
  let r = Sim.Rng.create 7L in
  let s = Sim.Stats.Summary.create () in
  for _ = 1 to 50_000 do
    Sim.Stats.Summary.add s (Sim.Rng.gaussian r)
  done;
  check "mean near 0" true (abs_float (Sim.Stats.Summary.mean s) < 0.02);
  check "std near 1" true (abs_float (Sim.Stats.Summary.stddev s -. 1.0) < 0.02)

let rng_exponential_mean () =
  let r = Sim.Rng.create 8L in
  let s = Sim.Stats.Summary.create () in
  for _ = 1 to 50_000 do
    Sim.Stats.Summary.add s (Sim.Rng.exponential r ~mean:250.0)
  done;
  check "mean near 250" true (abs_float (Sim.Stats.Summary.mean s -. 250.0) < 10.0)

(* The first 1000 [int64], [float] and [gaussian] draws of seeds 1, 7
   and 42, one fresh generator per (seed, kind), pinned to the streams
   of the boxed-state generator this one replaced: the digest of the
   draws printed one per line ([%Ld], or [%h] for floats), plus the
   first and last draw spelled out. *)
let rng_streams_pinned () =
  let pins =
    [
      (`I, 1L, "516b047ee9545a146bfcf3c29631e3e8",
        "-7995527694508729151", "-1794520960540127305");
      (`I, 7L, "b6d2136f78707a7b48f2ce899b30385b",
        "7191089600892374487", "-7524393952142688274");
      (`I, 42L, "fdb153cc276140ed15f7d0f4fc4a28a8",
        "-4767286540954276203", "7352439375932947048");
      (`F, 1L, "dff5ad509ad1ff4fee2b511a664b3661",
        "0x1.22145bd91204bp-1", "0x1.ce3129636a069p-1");
      (`F, 7L, "ff287841fab8f8d304cc2b38660b4776",
        "0x1.8f2f879164c82p-2", "0x1.2f27f72208dffp-1");
      (`F, 42L, "c51fa03b1af34a7cebe8ae7f649f2e51",
        "0x1.7bae644c5fd6dp-1", "0x1.982472a14c4fep-2");
      (`G, 1L, "925647c1c4e24adb699685c2ae07aaa7",
        "-0x1.ced805e687297p-6", "-0x1.dcf8d66562cf2p-1");
      (`G, 7L, "a6d89791e1d93661f0590c762e24ef6e",
        "0x1.5d70229cdee63p+0", "-0x1.befe8366c8fb4p-1");
      (`G, 42L, "ebe39463969c6a3b4210824b64d20be8",
        "0x1.a8ac4b546f509p-2", "0x1.1689a309f5326p+0");
    ]
  in
  List.iter
    (fun (kind, seed, digest, first, last) ->
      let r = Sim.Rng.create seed in
      let draws =
        List.init 1000 (fun _ ->
            match kind with
            | `I -> Printf.sprintf "%Ld" (Sim.Rng.int64 r)
            | `F -> Printf.sprintf "%h" (Sim.Rng.float r)
            | `G -> Printf.sprintf "%h" (Sim.Rng.gaussian r))
      in
      let kind_name = match kind with `I -> "int64" | `F -> "float" | `G -> "gaussian" in
      let name = Printf.sprintf "seed %Ld %s" seed kind_name in
      Alcotest.(check string) (name ^ " first") first (List.hd draws);
      Alcotest.(check string) (name ^ " last") last (List.nth draws 999);
      Alcotest.(check string) (name ^ " digest") digest
        (Digest.to_hex (Digest.string (String.concat "" (List.map (fun d -> d ^ "\n") draws)))))
    pins

(* Drawing must not allocate: the state and the Box-Muller spare are
   stored unboxed. Measured over many draws from outside the module, as
   every caller draws. A [float] result crossing a call that is not
   inlined is boxed for the caller (two words); nothing else may be. *)
let rng_draws_allocation_free () =
  let r = Sim.Rng.create 5L in
  let acc = ref 0 and sink = Array.make 1 0.0 in
  let n = 100_000 in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let int_words = words (fun () -> for _ = 1 to n do acc := !acc + Sim.Rng.int r 1000 done) in
  let bool_words = words (fun () -> for _ = 1 to n do if Sim.Rng.bool r then incr acc done) in
  let float_words = words (fun () -> for _ = 1 to n do sink.(0) <- Sim.Rng.float r done) in
  let gauss_words = words (fun () -> for _ = 1 to n do sink.(0) <- Sim.Rng.gaussian r done) in
  let report what w = Printf.sprintf "%s draws: %.2f minor words each" what w in
  check (report "int" int_words) true (int_words < 0.01);
  check (report "bool" bool_words) true (bool_words < 0.01);
  check (report "float" float_words) true (float_words <= 2.01);
  check (report "gaussian" gauss_words) true (gauss_words <= 2.01)

(* --- Distribution ------------------------------------------------------- *)

let dist_sampling_matches_mean () =
  let r = Sim.Rng.create 9L in
  let cases =
    [
      Sim.Distribution.Constant 100.0;
      Sim.Distribution.Uniform { lo = 50.0; hi = 150.0 };
      Sim.Distribution.Normal { mean = 100.0; std = 10.0 };
      Sim.Distribution.Exponential { mean = 100.0 };
      Sim.Distribution.Lognormal { median = 90.0; sigma = 0.4 };
      Sim.Distribution.Shifted { base = 40.0; jitter = Constant 60.0 };
      Sim.Distribution.Mixture [ (1.0, Constant 50.0); (1.0, Constant 150.0) ];
    ]
  in
  List.iter
    (fun d ->
      let s = Sim.Stats.Summary.create () in
      for _ = 1 to 50_000 do
        Sim.Stats.Summary.add s (Sim.Distribution.sample d r)
      done;
      let expect = Sim.Distribution.mean d in
      let got = Sim.Stats.Summary.mean s in
      check
        (Fmt.str "mean of %a: %.1f vs %.1f" Sim.Distribution.pp d got expect)
        true
        (abs_float (got -. expect) /. expect < 0.05))
    cases

let dist_nonnegative () =
  let r = Sim.Rng.create 10L in
  let d = Sim.Distribution.Normal { mean = 10.0; std = 100.0 } in
  for _ = 1 to 10_000 do
    check "clamped at 0" true (Sim.Distribution.sample d r >= 0.0)
  done

let dist_pareto_minimum () =
  let r = Sim.Rng.create 11L in
  let d = Sim.Distribution.Pareto { scale = 70.0; shape = 2.5 } in
  for _ = 1 to 10_000 do
    check "above scale" true (Sim.Distribution.sample d r >= 70.0)
  done

let dist_sample_ns_rounds () =
  let r = Sim.Rng.create 12L in
  check_int "constant rounds" 100
    (Sim.Distribution.sample_ns (Sim.Distribution.Constant 100.4) r)

(* --- Stats --------------------------------------------------------------- *)

let stats_summary () =
  let s = Sim.Stats.Summary.create () in
  List.iter (fun x -> Sim.Stats.Summary.add s x) [ 1.0; 2.0; 3.0; 4.0 ];
  check_int "count" 4 (Sim.Stats.Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Sim.Stats.Summary.mean s);
  Alcotest.(check (float 1e-4)) "stddev" 1.2909944 (Sim.Stats.Summary.stddev s);
  Alcotest.(check (float 0.0)) "min" 1.0 (Sim.Stats.Summary.min s);
  Alcotest.(check (float 0.0)) "max" 4.0 (Sim.Stats.Summary.max s)

let stats_percentiles () =
  let s = Sim.Stats.Samples.create () in
  for i = 100 downto 1 do
    Sim.Stats.Samples.add s i
  done;
  check_int "median" 50 (Sim.Stats.Samples.median s);
  check_int "p1" 1 (Sim.Stats.Samples.percentile s 1.0);
  check_int "p99" 99 (Sim.Stats.Samples.percentile s 99.0);
  check_int "p100" 100 (Sim.Stats.Samples.percentile s 100.0);
  check_int "min" 1 (Sim.Stats.Samples.min s);
  check_int "max" 100 (Sim.Stats.Samples.max s);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Sim.Stats.Samples.mean s)

let stats_percentile_cache_invalidation () =
  let s = Sim.Stats.Samples.create () in
  Sim.Stats.Samples.add s 10;
  check_int "median of one" 10 (Sim.Stats.Samples.median s);
  Sim.Stats.Samples.add s 2;
  Sim.Stats.Samples.add s 1;
  check_int "median after more adds" 2 (Sim.Stats.Samples.median s)

let stats_empty_percentile_raises () =
  let s = Sim.Stats.Samples.create () in
  check "raises" true
    (try
       ignore (Sim.Stats.Samples.median s);
       false
     with Invalid_argument _ -> true)

let stats_option_empty () =
  let s = Sim.Stats.Samples.create () in
  Alcotest.(check (option int)) "percentile_opt" None (Sim.Stats.Samples.percentile_opt s 50.0);
  Alcotest.(check (option (float 0.0))) "quantile_opt" None (Sim.Stats.Samples.quantile_opt s 0.5);
  Alcotest.(check (option int)) "median_opt" None (Sim.Stats.Samples.median_opt s);
  Alcotest.(check (option int)) "min_opt" None (Sim.Stats.Samples.min_opt s);
  Alcotest.(check (option int)) "max_opt" None (Sim.Stats.Samples.max_opt s);
  Alcotest.(check (option (float 0.0))) "mean_opt" None (Sim.Stats.Samples.mean_opt s)

let stats_option_single_sample () =
  let s = Sim.Stats.Samples.create () in
  Sim.Stats.Samples.add s 7;
  (* A single sample answers every quantile with itself — including the
     endpoints that previously tripped the interpolation index. *)
  List.iter
    (fun q ->
      Alcotest.(check (option (float 0.0)))
        (Printf.sprintf "q=%g" q) (Some 7.0) (Sim.Stats.Samples.quantile_opt s q))
    [ 0.0; 0.25; 0.5; 0.99; 1.0 ];
  Alcotest.(check (option int)) "p0" (Some 7) (Sim.Stats.Samples.percentile_opt s 0.0);
  Alcotest.(check (option int)) "p100" (Some 7) (Sim.Stats.Samples.percentile_opt s 100.0)

let stats_quantile_interpolation () =
  let s = Sim.Stats.Samples.create () in
  List.iter (fun x -> Sim.Stats.Samples.add s x) [ 10; 20; 30; 40 ];
  Alcotest.(check (option (float 1e-9))) "q=0 is min" (Some 10.0)
    (Sim.Stats.Samples.quantile_opt s 0.0);
  Alcotest.(check (option (float 1e-9))) "q=1 is max" (Some 40.0)
    (Sim.Stats.Samples.quantile_opt s 1.0);
  (* R type 7: h = q*(n-1); q=0.5 -> h=1.5 -> 20 + 0.5*(30-20) = 25. *)
  Alcotest.(check (option (float 1e-9))) "q=0.5 interpolates" (Some 25.0)
    (Sim.Stats.Samples.quantile_opt s 0.5);
  Alcotest.(check (option (float 1e-9))) "q=1/3 lands on sample" (Some 20.0)
    (Sim.Stats.Samples.quantile_opt s (1.0 /. 3.0));
  Alcotest.(check (option (float 0.0))) "q out of range" None
    (Sim.Stats.Samples.quantile_opt s 1.5);
  Alcotest.(check (option (float 0.0))) "q NaN" None
    (Sim.Stats.Samples.quantile_opt s Float.nan);
  Alcotest.(check (option int)) "p out of range" None
    (Sim.Stats.Samples.percentile_opt s 101.0)

let stats_histogram () =
  let h = Sim.Stats.Histogram.create ~bucket_width:10 in
  List.iter (fun x -> Sim.Stats.Histogram.add h x) [ 1; 5; 9; 10; 23; 25 ];
  check_int "total" 6 (Sim.Stats.Histogram.total h);
  Alcotest.(check (list (pair int int)))
    "buckets"
    [ (0, 3); (10, 1); (20, 2) ]
    (Sim.Stats.Histogram.buckets h)

(* --- Heap ---------------------------------------------------------------- *)

let heap_ordering () =
  let h = Sim.Heap.create () in
  let xs = [ (5, 'a'); (1, 'b'); (3, 'c'); (1, 'd'); (4, 'e') ] in
  List.iteri (fun seq (k, v) -> Sim.Heap.push h ~key:k ~seq v) xs;
  let popped = List.init 5 (fun _ -> Option.get (Sim.Heap.pop h)) in
  Alcotest.(check (list char)) "sorted by key then seq" [ 'b'; 'd'; 'c'; 'e'; 'a' ] popped;
  check "empty after" true (Sim.Heap.is_empty h)

let heap_fifo_within_key () =
  let h = Sim.Heap.create () in
  for i = 0 to 99 do
    Sim.Heap.push h ~key:7 ~seq:i i
  done;
  for i = 0 to 99 do
    check_int "fifo" i (Option.get (Sim.Heap.pop h))
  done

let heap_interleaved () =
  let h = Sim.Heap.create () in
  let r = Sim.Rng.create 13L in
  let reference = ref [] in
  let seq = ref 0 in
  for _ = 1 to 1000 do
    if Sim.Rng.float r < 0.6 || Sim.Heap.is_empty h then begin
      let k = Sim.Rng.int r 50 in
      incr seq;
      Sim.Heap.push h ~key:k ~seq:!seq (k, !seq);
      reference := (k, !seq) :: !reference
    end
    else begin
      let k, s = Option.get (Sim.Heap.pop h) in
      (* must be the minimum of the reference multiset *)
      let sorted = List.sort compare !reference in
      Alcotest.(check (pair int int)) "pop is minimum" (List.hd sorted) (k, s);
      reference := List.filter (fun x -> x <> (k, s)) !reference
    end
  done

(* --- Evq -------------------------------------------------------------------- *)

(* The engine's queue. The test names are the ones these tests had when
   they covered the timing wheel that [Sim.Evq] replaced. *)

let evq_ordering () =
  let q = Sim.Evq.create () in
  let xs = [ (5, 'a'); (1, 'b'); (3, 'c'); (1, 'd'); (4, 'e') ] in
  List.iteri (fun seq (k, v) -> Sim.Evq.push q ~key:k ~seq v) xs;
  let popped = List.init 5 (fun _ -> Option.get (Sim.Evq.pop q)) in
  Alcotest.(check (list char)) "sorted by key then seq" [ 'b'; 'd'; 'c'; 'e'; 'a' ] popped;
  check "empty after" true (Sim.Evq.is_empty q)

let evq_fifo_within_key () =
  let q = Sim.Evq.create () in
  for i = 0 to 99 do
    Sim.Evq.push q ~key:7 ~seq:i i
  done;
  for i = 0 to 99 do
    check_int "fifo" i (Option.get (Sim.Evq.pop q))
  done

(* Random interleaving across key scales from a few ns to beyond 2^32,
   so pushes land in the heap ahead of the clock, in the same-instant
   ring at it, and behind it. *)
let evq_interleaved () =
  let q = Sim.Evq.create () in
  let r = Sim.Rng.create 13L in
  let reference = ref [] in
  let seq = ref 0 in
  for _ = 1 to 1000 do
    if Sim.Rng.float r < 0.6 || Sim.Evq.is_empty q then begin
      let k =
        match Sim.Rng.int r 4 with
        | 0 -> Sim.Rng.int r 50
        | 1 -> Sim.Rng.int r 100_000
        | 2 -> Sim.Rng.int r 50_000_000
        | _ -> (1 lsl 33) + Sim.Rng.int r 1_000_000
      in
      incr seq;
      Sim.Evq.push q ~key:k ~seq:!seq (k, !seq);
      reference := (k, !seq) :: !reference
    end
    else begin
      let k, s = Option.get (Sim.Evq.pop q) in
      let sorted = List.sort compare !reference in
      Alcotest.(check (pair int int)) "pop is minimum" (List.hd sorted) (k, s);
      reference := List.filter (fun x -> x <> (k, s)) !reference
    end
  done;
  check_int "length agrees" (List.length !reference) (Sim.Evq.length q)

(* Regression (PR 8): a popped payload must be unreachable from the queue
   the moment it leaves. The original heap moved the last entry to the
   root but never cleared the vacated slot, so popped event closures —
   and everything they capture — stayed reachable until overwritten. *)
let heap_pop_releases_payload () =
  let h = Sim.Heap.create () in
  let w = Weak.create 1 in
  let () =
    let v = ref 42 in
    Weak.set w 0 (Some v);
    Sim.Heap.push h ~key:1 ~seq:1 v;
    match Sim.Heap.pop h with
    | Some r -> check_int "payload intact" 42 !r
    | None -> Alcotest.fail "pop returned None"
  in
  Gc.full_major ();
  let released = Weak.check w 0 in
  (* keep the heap (and its backing arrays) alive across the check, or
     the whole structure could be collected and mask a stale slot *)
  check_int "heap empty" 0 (Sim.Heap.length h);
  check "heap released popped payload" false released

let evq_pop_releases_payload () =
  (* One key at the clock (the same-instant ring) and one ahead of it
     (the heap): both storage regions must clear their slots. *)
  let t = Sim.Evq.create () in
  let w = Weak.create 2 in
  let () =
    let a = ref 1 and b = ref 2 in
    Weak.set w 0 (Some a);
    Weak.set w 1 (Some b);
    Sim.Evq.push t ~key:0 ~seq:1 a;
    Sim.Evq.push t ~key:(1 lsl 40) ~seq:2 b;
    check_int "ring first" 1 !(Sim.Evq.pop_exn t);
    check_int "heap second" 2 !(Sim.Evq.pop_exn t)
  in
  Gc.full_major ();
  let ring = Weak.check w 0 and heap = Weak.check w 1 in
  check_int "queue empty" 0 (Sim.Evq.length t);
  check "queue released ring payload" false ring;
  check "queue released heap payload" false heap

(* --- Engine --------------------------------------------------------------- *)

let engine_time_advances () =
  let trace = ref [] in
  let _e =
    Util.run_scenario (fun e ->
        Sim.Engine.schedule e ~at:50 (fun () -> trace := (50, Sim.Engine.now e) :: !trace);
        Sim.Engine.schedule e ~at:10 (fun () -> trace := (10, Sim.Engine.now e) :: !trace);
        Sim.Engine.schedule e ~at:30 (fun () -> trace := (30, Sim.Engine.now e) :: !trace))
  in
  Alcotest.(check (list (pair int int)))
    "events in time order at right times"
    [ (10, 10); (30, 30); (50, 50) ]
    (List.rev !trace)

let engine_same_time_fifo () =
  let trace = ref [] in
  let _e =
    Util.run_scenario (fun e ->
        for i = 1 to 5 do
          Sim.Engine.schedule e ~at:100 (fun () -> trace := i :: !trace)
        done)
  in
  Alcotest.(check (list int)) "FIFO at same instant" [ 1; 2; 3; 4; 5 ] (List.rev !trace)

let engine_until_limit () =
  let ran = ref false in
  let e = Util.engine () in
  Sim.Engine.schedule e ~at:1_000 (fun () -> ran := true);
  Sim.Engine.run ~until:500 e;
  check "not yet run" false !ran;
  check_int "clock at limit" 500 (Sim.Engine.now e);
  Sim.Engine.run e;
  check "runs after" true !ran

(* Regression (PR 8): [run ~until] must advance the clock to the limit on
   normal return even when the queue drains early — the engine has
   observed all of virtual time up to the limit. Previously [now] was
   only advanced when a pending event lay beyond the limit, so
   back-to-back [run ~until] calls observed inconsistent clocks. *)
let engine_until_empty_queue () =
  let e = Util.engine () in
  Sim.Engine.schedule e ~at:100 (fun () -> ());
  Sim.Engine.run ~until:1_000 e;
  check_int "clock at limit after queue drained" 1_000 (Sim.Engine.now e);
  Sim.Engine.run ~until:2_000 e;
  check_int "clock at limit with empty queue" 2_000 (Sim.Engine.now e)

let engine_until_halt_keeps_clock () =
  let e = Util.engine () in
  Sim.Engine.schedule e ~at:100 (fun () -> Sim.Engine.halt e);
  Sim.Engine.run ~until:1_000 e;
  check_int "halt pins clock at the halting event" 100 (Sim.Engine.now e)

(* --- fast-forward: a sleep nothing can interrupt continues in place --- *)

let engine_sleep_fast_forwards () =
  let e = Util.engine () in
  let woke = ref [] in
  Sim.Engine.spawn e (fun () ->
      for _ = 1 to 5 do
        Sim.Engine.sleep e 100;
        woke := Sim.Engine.now e :: !woke
      done;
      Sim.Engine.yield e);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "woke on time" [ 100; 200; 300; 400; 500 ] (List.rev !woke);
  check_int "every sleep and the yield continued in place" 6 (Sim.Engine.fast_forwards e);
  check_int "nothing left queued" 0 (Sim.Engine.pending_events e)

(* An event due exactly at the wake instant runs first, as it would
   ahead of the timer it was queued before. *)
let engine_no_fast_forward_into_due_event () =
  let e = Util.engine () in
  let order = ref [] in
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.schedule e ~at:100 (fun () -> order := "event" :: !order);
      Sim.Engine.sleep e 100;
      order := "fiber" :: !order;
      (* Due one tick after the wake instant: this sleep may skip it. *)
      Sim.Engine.schedule e ~at:201 (fun () -> order := "later" :: !order);
      Sim.Engine.sleep e 100;
      order := "fiber" :: !order);
  Sim.Engine.run e;
  Alcotest.(check (list string)) "order" [ "event"; "fiber"; "fiber"; "later" ] (List.rev !order);
  check_int "only the sleep before the later event fast-forwards" 1 (Sim.Engine.fast_forwards e)

let engine_no_fast_forward_past_until () =
  let e = Util.engine () in
  let woke = ref (-1) in
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.sleep e 100;
      woke := Sim.Engine.now e);
  Sim.Engine.run ~until:50 e;
  check_int "clock stops at the limit" 50 (Sim.Engine.now e);
  check_int "fiber still asleep" (-1) !woke;
  check_int "no fast-forward across the limit" 0 (Sim.Engine.fast_forwards e);
  Sim.Engine.run ~until:100 e;
  check_int "wakes in the next run, at the limit itself" 100 !woke

let engine_no_fast_forward_after_halt () =
  let e = Util.engine () in
  let woke = ref false in
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.halt e;
      Sim.Engine.sleep e 100;
      woke := true);
  Sim.Engine.run e;
  check "halted run does not continue the sleeper" false !woke;
  check_int "clock pinned at the halting event" 0 (Sim.Engine.now e);
  check_int "no fast-forward" 0 (Sim.Engine.fast_forwards e)

(* Every observer sees the timer/wake pair, so each turns fast-forward
   off; the virtual outcome is the same either way. A metrics registry is
   a handle components read, not an observer: it leaves the bare run. *)
let engine_no_fast_forward_when_observed () =
  let run attach =
    let e = Util.engine () in
    attach e;
    let woke = ref [] in
    Sim.Engine.spawn e (fun () ->
        for _ = 1 to 3 do
          Sim.Engine.sleep e 10;
          woke := Sim.Engine.now e :: !woke
        done);
    Sim.Engine.run e;
    (Sim.Engine.fast_forwards e, List.rev !woke)
  in
  let profiler =
    {
      Sim.Engine.prof_event = (fun ~now:_ -> ());
      prof_attr = (fun ~pid:_ ~tid:_ ~spans:_ -> ());
      prof_fiber = (fun ~tid:_ ~pid:_ ~name:_ -> ());
      prof_span = (fun ~id:_ ~name:_ -> ());
      prof_host = (fun ~pid:_ ~name:_ -> ());
    }
  in
  Alcotest.(check (pair int (list int))) "bare" (3, [ 10; 20; 30 ]) (run ignore);
  Alcotest.(check (pair int (list int))) "metrics registry" (3, [ 10; 20; 30 ])
    (run (fun e -> Sim.Engine.set_metrics e (Telemetry.Registry.create ())));
  List.iter
    (fun (name, attach) ->
      Alcotest.(check (pair int (list int))) name (0, [ 10; 20; 30 ]) (run attach))
    [
      ("probe sink", fun e -> Sim.Probe.set_sink (Sim.Engine.probe e) ignore);
      ("profiler", fun e -> Sim.Engine.set_profiler e profiler);
      ( "self-cost sampler",
        fun e -> Sim.Engine.set_selfcost e (Sim.Engine.selfcost_create ~clock:Sys.time ()) );
    ]

(* Regression (PR 8): the provenance span-stack table must not retain an
   entry per fiber that ever opened a span; entries are dropped when the
   fiber's stack empties, keeping the table bounded by fibers with an
   open span rather than growing for the lifetime of the run. *)
let engine_span_stacks_bounded () =
  let e = Util.engine () in
  Sim.Probe.set_sink (Sim.Engine.probe e) (fun _ -> ());
  Sim.Engine.set_provenance e true;
  for i = 1 to 100 do
    Sim.Engine.spawn e ~name:"spanner" (fun () ->
        Sim.Engine.span_scope e "outer" (fun () ->
            Sim.Engine.sleep e (10 * i);
            Sim.Engine.span_scope e "inner" (fun () -> Sim.Engine.sleep e 5)))
  done;
  Sim.Engine.run e;
  check_int "no span stacks survive their fibers" 0 (Sim.Engine.span_stacks_live e)

(* Regression (PR 8): the sleep/resume path must stay within a minor-word
   budget well below the 71 words/sleep the heap-backed engine spent
   (boxed heap entries, per-resume closure pairs and [Fun.protect]
   machinery). Metrics/trace off — the configuration the events/sec
   baseline is defined on. *)
let engine_resume_allocation_bounded () =
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
    Alcotest.failf "sleep/resume path allocated %.1f minor words per sleep" per_sleep

let engine_sleep () =
  let t = Util.run_fiber (fun e ->
      Sim.Engine.sleep e 123;
      Sim.Engine.sleep e 77;
      Sim.Engine.now e)
  in
  check_int "slept 200" 200 t

let engine_fiber_crash_propagates () =
  let e = Util.engine () in
  Sim.Engine.spawn e ~name:"boom" (fun () -> failwith "bang");
  check "crash surfaces" true
    (try
       Sim.Engine.run e;
       false
     with Sim.Engine.Fiber_crash ("boom", _) -> true)

let engine_determinism () =
  let run () =
    let order = ref [] in
    let e = Util.engine ~seed:99L () in
    for i = 1 to 10 do
      Sim.Engine.spawn e ~name:"f" (fun () ->
          Sim.Engine.sleep e (Sim.Rng.int (Sim.Engine.rng e) 100);
          order := i :: !order)
    done;
    Sim.Engine.run e;
    !order
  in
  Alcotest.(check (list int)) "identical schedules" (run ()) (run ())

let ivar_basics () =
  Util.run_fiber (fun e ->
      let iv = Sim.Engine.Ivar.create e in
      check "empty" false (Sim.Engine.Ivar.is_filled iv);
      Sim.Engine.Ivar.fill iv 42;
      check_int "read full" 42 (Sim.Engine.Ivar.read iv);
      check "try_fill on full" false (Sim.Engine.Ivar.try_fill iv 43);
      check_int "peek" 42 (Option.get (Sim.Engine.Ivar.peek iv)))

let ivar_blocks_until_filled () =
  let woken_at =
    Util.run_fiber (fun e ->
        let iv = Sim.Engine.Ivar.create e in
        Sim.Engine.spawn e ~name:"filler" (fun () ->
            Sim.Engine.sleep e 500;
            Sim.Engine.Ivar.fill iv "hello");
        let v = Sim.Engine.Ivar.read iv in
        Alcotest.(check string) "value" "hello" v;
        Sim.Engine.now e)
  in
  check_int "woke at fill time" 500 woken_at

let ivar_multiple_readers () =
  let count = ref 0 in
  let _e =
    Util.run_scenario (fun e ->
        let iv = Sim.Engine.Ivar.create e in
        for _ = 1 to 5 do
          Sim.Engine.spawn e ~name:"reader" (fun () ->
              ignore (Sim.Engine.Ivar.read iv);
              incr count)
        done;
        Sim.Engine.spawn e ~name:"filler" (fun () ->
            Sim.Engine.sleep e 10;
            Sim.Engine.Ivar.fill iv ()))
  in
  check_int "all woken" 5 !count

let chan_fifo () =
  Util.run_fiber (fun e ->
      let c = Sim.Engine.Chan.create e in
      List.iter (Sim.Engine.Chan.send c) [ 1; 2; 3 ];
      check_int "1" 1 (Sim.Engine.Chan.recv c);
      check_int "2" 2 (Sim.Engine.Chan.recv c);
      check_int "3" 3 (Sim.Engine.Chan.recv c))

let chan_timeout_expires () =
  Util.run_fiber (fun e ->
      let c : int Sim.Engine.Chan.chan = Sim.Engine.Chan.create e in
      let t0 = Sim.Engine.now e in
      (match Sim.Engine.Chan.recv_timeout c 250 with
      | None -> ()
      | Some _ -> Alcotest.fail "unexpected value");
      check_int "waited full timeout" 250 (Sim.Engine.now e - t0))

let chan_timeout_receives () =
  Util.run_fiber (fun e ->
      let c = Sim.Engine.Chan.create e in
      Sim.Engine.spawn e ~name:"sender" (fun () ->
          Sim.Engine.sleep e 100;
          Sim.Engine.Chan.send c 7);
      match Sim.Engine.Chan.recv_timeout c 1_000 with
      | Some 7 -> check_int "at send time" 100 (Sim.Engine.now e)
      | Some _ | None -> Alcotest.fail "expected 7")

let chan_timeout_no_double_delivery () =
  (* A value arriving just before the timer must not be dropped or doubled. *)
  Util.run_fiber (fun e ->
      let c = Sim.Engine.Chan.create e in
      Sim.Engine.spawn e ~name:"sender" (fun () ->
          Sim.Engine.sleep e 99;
          Sim.Engine.Chan.send c 1;
          Sim.Engine.Chan.send c 2);
      (match Sim.Engine.Chan.recv_timeout c 100 with
      | Some 1 -> ()
      | Some v -> Alcotest.fail (Printf.sprintf "got %d" v)
      | None -> Alcotest.fail "timed out despite earlier send");
      Sim.Engine.sleep e 1_000;
      check_int "second value intact" 2 (Sim.Engine.Chan.recv c))

let chan_timeout_boundary_keeps_value () =
  (* When the timeout fires first at the exact deadline, the racing value
     must stay queued for the next receiver rather than vanish. *)
  Util.run_fiber (fun e ->
      let c = Sim.Engine.Chan.create e in
      Sim.Engine.spawn e ~name:"sender" (fun () ->
          Sim.Engine.sleep e 100;
          Sim.Engine.Chan.send c 1);
      (match Sim.Engine.Chan.recv_timeout c 100 with
      | None -> ()
      | Some _ -> Alcotest.fail "timer scheduled first must win the tie");
      check_int "value preserved" 1 (Sim.Engine.Chan.recv c))

let chan_poll () =
  Util.run_fiber (fun e ->
      let c = Sim.Engine.Chan.create e in
      check "poll empty" true (Sim.Engine.Chan.poll c = None);
      Sim.Engine.Chan.send c 9;
      check "poll full" true (Sim.Engine.Chan.poll c = Some 9))

(* --- Host ----------------------------------------------------------------- *)

let host_cpu_consumes_time () =
  Util.run_fiber (fun e ->
      let h = Util.host e ~id:0 in
      let t0 = Sim.Engine.now e in
      Sim.Host.cpu h 1_000;
      check "at least the compute time" true (Sim.Engine.now e - t0 >= 1_000))

let host_pause_blocks_resume_unblocks () =
  let progress = ref 0 in
  let _e =
    Util.run_scenario (fun e ->
        let h = Util.host e ~id:0 in
        Sim.Host.spawn h ~name:"worker" (fun () ->
            let rec loop () =
              Sim.Host.cpu h 100;
              incr progress;
              if !progress < 1_000 then loop ()
            in
            loop ());
        Sim.Engine.schedule e ~at:5_000 (fun () -> Sim.Host.pause h);
        Sim.Engine.schedule e ~at:100_000 (fun () ->
            Alcotest.(check bool) "stalled while paused" true (!progress < 100);
            Sim.Host.resume h))
  in
  check_int "completed after resume" 1_000 !progress

let host_stop_process_parks_fibers () =
  let progress = ref 0 in
  let _e =
    Util.run_scenario (fun e ->
        let h = Util.host e ~id:0 in
        Sim.Host.spawn h ~name:"worker" (fun () ->
            let rec loop () =
              Sim.Host.cpu h 100;
              incr progress;
              loop ()
            in
            loop ());
        Sim.Engine.schedule e ~at:5_000 (fun () -> Sim.Host.stop_process h))
  in
  check "made some progress" true (!progress > 0);
  check "stopped promptly" true (!progress <= 51)

let host_liveness_transitions () =
  let e = Util.engine () in
  let h = Util.host e ~id:0 in
  check "nic reachable running" true (Sim.Host.nic_reachable h);
  Sim.Host.pause h;
  check "nic reachable paused" true (Sim.Host.nic_reachable h);
  check "process alive paused" true (Sim.Host.process_alive h);
  Sim.Host.resume h;
  Sim.Host.stop_process h;
  check "nic reachable after process crash" true (Sim.Host.nic_reachable h);
  check "process dead" false (Sim.Host.process_alive h);
  Sim.Host.kill_host h;
  check "nic dead" false (Sim.Host.nic_reachable h)

let host_jitter_occurs () =
  (* With a tiny jitter period, cpu calls take visibly longer than the
     nominal time. *)
  let cal =
    { Util.default_cal with Sim.Calibration.cpu_jitter_period = 10_000;
      cpu_jitter = Sim.Distribution.Constant 5_000.0 }
  in
  Util.run_fiber (fun e ->
      let h = Sim.Host.create e cal ~id:0 ~name:"jittery" in
      let t0 = Sim.Engine.now e in
      for _ = 1 to 100 do
        Sim.Host.cpu h 1_000
      done;
      let elapsed = Sim.Engine.now e - t0 in
      check "jitter added" true (elapsed > 110_000))

let disabled_hooks_allocation_free () =
  (* With no tracer attached, provenance off and no metrics registry,
     every observability hook on the engine hot path must return without
     allocating — the simulator pays for instrumentation only when it is
     switched on. Measured as a [Gc.minor_words] delta over many calls;
     the budget of a few words per thousand calls absorbs runtime noise
     without hiding a per-call box. *)
  (* Optional arguments ([~cat], [~args]) box a [Some] at the call site
     before the callee's guard can run — which is why hot-path call
     sites check [traced]/span-id themselves before building them. Here
     we measure the bare hooks. *)
  let e = Util.engine () in
  let iters = 10_000 in
  let body () = () in
  (* warm-up: first calls may fault in lazy runtime structures *)
  Sim.Engine.trace_counter e "ops" ~value:0;
  Sim.Engine.trace_instant e "tick";
  Sim.Engine.span_close e (Sim.Engine.span_open e "op");
  Sim.Engine.span_scope e "op" body;
  let w0 = Gc.minor_words () in
  for i = 1 to iters do
    Sim.Engine.trace_counter e "ops" ~value:i;
    Sim.Engine.trace_instant e "tick";
    Sim.Engine.span_close e (Sim.Engine.span_open e "op");
    Sim.Engine.span_scope e "op" body
  done;
  let per_kilo = (Gc.minor_words () -. w0) /. float_of_int (iters / 1000) in
  if per_kilo > 64.0 then
    Alcotest.failf "disabled hooks allocated %.1f minor words per 1000 calls" per_kilo

let suite =
  [
    ("rng deterministic", `Quick, rng_deterministic);
    ("rng seed sensitivity", `Quick, rng_seed_sensitivity);
    ("rng float range", `Quick, rng_float_range);
    ("rng int range", `Quick, rng_int_range);
    ("rng int bad bound", `Quick, rng_int_rejects_bad_bound);
    ("rng split independent", `Quick, rng_split_independent);
    ("rng gaussian moments", `Quick, rng_gaussian_moments);
    ("rng exponential mean", `Quick, rng_exponential_mean);
    ("rng streams pinned", `Quick, rng_streams_pinned);
    ("rng draws allocation-free", `Quick, rng_draws_allocation_free);
    ("distribution means", `Quick, dist_sampling_matches_mean);
    ("distribution nonnegative", `Quick, dist_nonnegative);
    ("distribution pareto minimum", `Quick, dist_pareto_minimum);
    ("distribution sample_ns", `Quick, dist_sample_ns_rounds);
    ("stats summary", `Quick, stats_summary);
    ("stats percentiles", `Quick, stats_percentiles);
    ("stats cache invalidation", `Quick, stats_percentile_cache_invalidation);
    ("stats empty raises", `Quick, stats_empty_percentile_raises);
    ("stats option api on empty", `Quick, stats_option_empty);
    ("stats option api single sample", `Quick, stats_option_single_sample);
    ("stats quantile interpolation", `Quick, stats_quantile_interpolation);
    ("stats histogram", `Quick, stats_histogram);
    ("heap ordering", `Quick, heap_ordering);
    ("heap fifo within key", `Quick, heap_fifo_within_key);
    ("heap interleaved", `Quick, heap_interleaved);
    ("heap pop releases payload", `Quick, heap_pop_releases_payload);
    ("wheel ordering", `Quick, evq_ordering);
    ("wheel fifo within key", `Quick, evq_fifo_within_key);
    ("wheel interleaved", `Quick, evq_interleaved);
    ("wheel pop releases payload", `Quick, evq_pop_releases_payload);
    ("engine time advances", `Quick, engine_time_advances);
    ("engine same-time fifo", `Quick, engine_same_time_fifo);
    ("engine until limit", `Quick, engine_until_limit);
    ("engine until empty queue", `Quick, engine_until_empty_queue);
    ("engine until halt keeps clock", `Quick, engine_until_halt_keeps_clock);
    ("engine span stacks bounded", `Quick, engine_span_stacks_bounded);
    ("engine resume allocation bounded", `Quick, engine_resume_allocation_bounded);
    ("engine sleep", `Quick, engine_sleep);
    ("engine sleep fast-forwards", `Quick, engine_sleep_fast_forwards);
    ("engine no fast-forward into due event", `Quick, engine_no_fast_forward_into_due_event);
    ("engine no fast-forward past until", `Quick, engine_no_fast_forward_past_until);
    ("engine no fast-forward after halt", `Quick, engine_no_fast_forward_after_halt);
    ("engine no fast-forward when observed", `Quick, engine_no_fast_forward_when_observed);
    ("engine fiber crash propagates", `Quick, engine_fiber_crash_propagates);
    ("engine determinism", `Quick, engine_determinism);
    ("disabled hooks allocation-free", `Quick, disabled_hooks_allocation_free);
    ("ivar basics", `Quick, ivar_basics);
    ("ivar blocks until filled", `Quick, ivar_blocks_until_filled);
    ("ivar multiple readers", `Quick, ivar_multiple_readers);
    ("chan fifo", `Quick, chan_fifo);
    ("chan timeout expires", `Quick, chan_timeout_expires);
    ("chan timeout receives", `Quick, chan_timeout_receives);
    ("chan timeout no double delivery", `Quick, chan_timeout_no_double_delivery);
    ("chan timeout boundary keeps value", `Quick, chan_timeout_boundary_keeps_value);
    ("chan poll", `Quick, chan_poll);
    ("host cpu consumes time", `Quick, host_cpu_consumes_time);
    ("host pause/resume", `Quick, host_pause_blocks_resume_unblocks);
    ("host stop parks fibers", `Quick, host_stop_process_parks_fibers);
    ("host liveness transitions", `Quick, host_liveness_transitions);
    ("host jitter occurs", `Quick, host_jitter_occurs);
  ]

(* Tests for the workload library: generators and the linearizability
   checker. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- generators ------------------------------------------------------------ *)

let payload_size_and_determinism () =
  let r1 = Sim.Rng.create 3L and r2 = Sim.Rng.create 3L in
  let p1 = Workload.Generators.payload r1 ~size:64 in
  let p2 = Workload.Generators.payload r2 ~size:64 in
  check_int "size" 64 (Bytes.length p1);
  check "deterministic" true (Bytes.equal p1 p2)

let zipf_skew () =
  let rng = Sim.Rng.create 4L in
  let n = 1_000 in
  let counts = Array.make n 0 in
  for _ = 1 to 50_000 do
    let k = Workload.Generators.zipf rng ~n ~theta:0.99 in
    check "in range" true (k >= 0 && k < n);
    counts.(k) <- counts.(k) + 1
  done;
  (* Head keys dominate under Zipf 0.99. *)
  check "head heavier than tail" true (counts.(0) > 20 * max 1 counts.(n - 1));
  check "head around 12-18%" true (counts.(0) > 3_000 && counts.(0) < 12_000)

let zipf_uniform_when_theta_zero () =
  let rng = Sim.Rng.create 5L in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let k = Workload.Generators.zipf rng ~n:10 ~theta:0.0 in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter (fun c -> check "roughly uniform" true (c > 700 && c < 1_300)) counts

(* The guided sampler draws what the plain binary search draws, one
   float per draw, so switching a hot loop to it moves no key. *)
let zipf_sampler_matches_search () =
  List.iter
    (fun (n, theta) ->
      let sample = Workload.Generators.zipf_sampler ~n ~theta in
      let r1 = Sim.Rng.create 11L and r2 = Sim.Rng.create 11L in
      for _ = 1 to 10_000 do
        let want = Workload.Generators.zipf r1 ~n ~theta in
        let got = sample r2 in
        if got <> want then Alcotest.failf "n=%d theta=%g: %d, search gives %d" n theta got want
      done;
      Alcotest.(check int64)
        (Printf.sprintf "n=%d theta=%g: same stream position" n theta)
        (Sim.Rng.int64 r1) (Sim.Rng.int64 r2))
    [ (1, 0.99); (2, 0.5); (10, 0.99); (1_000, 0.99); (100_000, 0.99); (70_000, 1.2); (10, 0.0) ]

let key_name_matches_printf () =
  List.iter
    (fun i ->
      Alcotest.(check string) (string_of_int i) (Printf.sprintf "key-%08d" i)
        (Workload.Generators.key_name i))
    [ 0; 1; 9; 10; 12_345; 9_999_999; 10_000_000; 99_999_999; 100_000_000; 123_456_789; -1; -42 ]

let order_flow_generates_valid_commands () =
  let rng = Sim.Rng.create 6L in
  let flow = Workload.Generators.order_flow rng in
  let book = Apps.Order_book.create () in
  let rejected = ref 0 and total = 500 in
  for _ = 1 to total do
    let cmd = Workload.Generators.next_order flow in
    let events = Apps.Exchange.apply book cmd in
    List.iter
      (function Apps.Order_book.Rejected _ -> incr rejected | _ -> ())
      events
  done;
  (* Market orders on an empty side get rejected; everything else lands. *)
  check "mostly valid flow" true (!rejected * 5 < total);
  check "book active" true (Apps.Order_book.trades_executed book > 10)

(* --- linearizability checker ------------------------------------------------ *)

let op ~proc ~inv ~res ~key kind =
  { Workload.Linearizability.proc; invoked = inv; responded = res; key; kind }

let lin_sequential_ok () =
  let h =
    [
      op ~proc:1 ~inv:0 ~res:1 ~key:"k" (Workload.Linearizability.Write "a");
      op ~proc:1 ~inv:2 ~res:3 ~key:"k" (Workload.Linearizability.Read (Some "a"));
      op ~proc:1 ~inv:4 ~res:5 ~key:"k" (Workload.Linearizability.Write "b");
      op ~proc:1 ~inv:6 ~res:7 ~key:"k" (Workload.Linearizability.Read (Some "b"));
    ]
  in
  check "linearizable" true (Workload.Linearizability.check h)

let lin_initial_read_none () =
  let h = [ op ~proc:1 ~inv:0 ~res:1 ~key:"k" (Workload.Linearizability.Read None) ] in
  check "read of nothing" true (Workload.Linearizability.check h)

let lin_stale_read_rejected () =
  let h =
    [
      op ~proc:1 ~inv:0 ~res:1 ~key:"k" (Workload.Linearizability.Write "a");
      op ~proc:1 ~inv:2 ~res:3 ~key:"k" (Workload.Linearizability.Write "b");
      (* Reads strictly after both writes cannot see the older value. *)
      op ~proc:2 ~inv:4 ~res:5 ~key:"k" (Workload.Linearizability.Read (Some "a"));
    ]
  in
  check "stale read caught" false (Workload.Linearizability.check h)

let lin_concurrent_write_either_order () =
  let h v =
    [
      op ~proc:1 ~inv:0 ~res:10 ~key:"k" (Workload.Linearizability.Write "a");
      op ~proc:2 ~inv:0 ~res:10 ~key:"k" (Workload.Linearizability.Write "b");
      op ~proc:3 ~inv:11 ~res:12 ~key:"k" (Workload.Linearizability.Read (Some v));
    ]
  in
  check "a possible" true (Workload.Linearizability.check (h "a"));
  check "b possible" true (Workload.Linearizability.check (h "b"))

let lin_read_during_write_flexible () =
  let h =
    [
      op ~proc:1 ~inv:0 ~res:1 ~key:"k" (Workload.Linearizability.Write "a");
      op ~proc:1 ~inv:5 ~res:15 ~key:"k" (Workload.Linearizability.Write "b");
      (* Concurrent with the second write: may see either value. *)
      op ~proc:2 ~inv:6 ~res:14 ~key:"k" (Workload.Linearizability.Read (Some "a"));
    ]
  in
  check "concurrent read of old value ok" true (Workload.Linearizability.check h)

let lin_nonatomic_history_rejected () =
  (* Two sequential reads around a concurrent write observing b then a:
     no single linearization point explains it. *)
  let h =
    [
      op ~proc:1 ~inv:0 ~res:1 ~key:"k" (Workload.Linearizability.Write "a");
      op ~proc:1 ~inv:10 ~res:30 ~key:"k" (Workload.Linearizability.Write "b");
      op ~proc:2 ~inv:12 ~res:14 ~key:"k" (Workload.Linearizability.Read (Some "b"));
      op ~proc:2 ~inv:16 ~res:18 ~key:"k" (Workload.Linearizability.Read (Some "a"));
    ]
  in
  check "b-then-a rejected" false (Workload.Linearizability.check h)

let lin_keys_independent () =
  let h =
    [
      op ~proc:1 ~inv:0 ~res:1 ~key:"x" (Workload.Linearizability.Write "1");
      op ~proc:1 ~inv:2 ~res:3 ~key:"y" (Workload.Linearizability.Write "2");
      op ~proc:2 ~inv:4 ~res:5 ~key:"x" (Workload.Linearizability.Read (Some "1"));
      op ~proc:2 ~inv:6 ~res:7 ~key:"y" (Workload.Linearizability.Read (Some "2"));
    ]
  in
  check "multi-key ok" true (Workload.Linearizability.check h)

let lin_stale_read_after_acked_write_rejected () =
  (* Adversarial: a fourth client reads "v1" strictly after proc1's write
     of "v2" was acknowledged — every read after an acked overwrite must
     observe the new value (or a later one). *)
  let h =
    [
      op ~proc:1 ~inv:0 ~res:1 ~key:"k" (Workload.Linearizability.Write "v1");
      op ~proc:2 ~inv:2 ~res:3 ~key:"k" (Workload.Linearizability.Read (Some "v1"));
      op ~proc:1 ~inv:4 ~res:5 ~key:"k" (Workload.Linearizability.Write "v2");
      op ~proc:3 ~inv:6 ~res:7 ~key:"k" (Workload.Linearizability.Read (Some "v1"));
    ]
  in
  check "stale read after acked write rejected" false
    (Workload.Linearizability.check h)

let lin_cross_client_inversion_rejected () =
  (* Adversarial: two non-overlapping writes ("a" strictly before "b"),
     then a reader sees "b" while a later reader sees "a" — real-time
     order forbids the state from moving backwards across clients. *)
  let h =
    [
      op ~proc:1 ~inv:0 ~res:1 ~key:"k" (Workload.Linearizability.Write "a");
      op ~proc:2 ~inv:2 ~res:3 ~key:"k" (Workload.Linearizability.Write "b");
      op ~proc:3 ~inv:4 ~res:5 ~key:"k" (Workload.Linearizability.Read (Some "b"));
      op ~proc:4 ~inv:6 ~res:7 ~key:"k" (Workload.Linearizability.Read (Some "a"));
    ]
  in
  check "cross-client inversion rejected" false (Workload.Linearizability.check h)

(* --- end to end: the replicated KV is linearizable -------------------------- *)

let replicated_kv_is_linearizable () =
  let e = Util.engine ~seed:21L () in
  let smr =
    Mu.Smr.create e Util.default_cal Mu.Config.default ~make_app:(fun _ ->
        Apps.Kv_store.smr_app ())
  in
  Mu.Smr.start smr;
  let history = ref [] in
  let record o = history := o :: !history in
  let n_clients = 4 and ops_per_client = 25 in
  let finished = ref 0 in
  for proc = 1 to n_clients do
    Sim.Engine.spawn e ~name:(Printf.sprintf "client%d" proc) (fun () ->
        Mu.Smr.wait_live smr;
        let rng = Sim.Rng.create (Int64.of_int (100 + proc)) in
        for i = 1 to ops_per_client do
          let key = Printf.sprintf "key%d" (Sim.Rng.int rng 3) in
          let req_id = (proc * 1000) + i in
          if Sim.Rng.bool rng then begin
            let value = Printf.sprintf "p%d-%d" proc i in
            let inv = Sim.Engine.now e in
            ignore
              (Mu.Smr.submit smr
                 (Apps.Kv_store.encode_command ~client:proc ~req_id
                    (Apps.Kv_store.Put { key; value })));
            record
              (op ~proc ~inv ~res:(Sim.Engine.now e) ~key
                 (Workload.Linearizability.Write value))
          end
          else begin
            let inv = Sim.Engine.now e in
            let reply =
              Mu.Smr.submit smr
                (Apps.Kv_store.encode_command ~client:proc ~req_id
                   (Apps.Kv_store.Get { key }))
            in
            let observed =
              match Apps.Kv_store.decode_reply reply with
              | Some (Apps.Kv_store.Value v) -> Some v
              | _ -> None
            in
            record
              (op ~proc ~inv ~res:(Sim.Engine.now e) ~key
                 (Workload.Linearizability.Read observed))
          end
        done;
        incr finished;
        if !finished = n_clients then begin
          Mu.Smr.stop smr;
          Sim.Engine.halt e
        end)
  done;
  Sim.Engine.run ~until:120_000_000_000 e;
  check_int "all clients finished" n_clients !finished;
  check "history linearizable" true (Workload.Linearizability.check !history)

let suite =
  [
    ("payload generator", `Quick, payload_size_and_determinism);
    ("zipf skew", `Quick, zipf_skew);
    ("zipf uniform at theta 0", `Quick, zipf_uniform_when_theta_zero);
    ("zipf sampler matches binary search", `Quick, zipf_sampler_matches_search);
    ("key name matches printf", `Quick, key_name_matches_printf);
    ("order flow valid", `Quick, order_flow_generates_valid_commands);
    ("lin: sequential ok", `Quick, lin_sequential_ok);
    ("lin: initial read none", `Quick, lin_initial_read_none);
    ("lin: stale read rejected", `Quick, lin_stale_read_rejected);
    ("lin: concurrent writes either order", `Quick, lin_concurrent_write_either_order);
    ("lin: read during write flexible", `Quick, lin_read_during_write_flexible);
    ("lin: non-atomic history rejected", `Quick, lin_nonatomic_history_rejected);
    ("lin: keys independent", `Quick, lin_keys_independent);
    ("lin: stale read after acked write", `Quick, lin_stale_read_after_acked_write_rejected);
    ("lin: cross-client inversion", `Quick, lin_cross_client_inversion_rejected);
    ("replicated kv is linearizable", `Quick, replicated_kv_is_linearizable);
  ]

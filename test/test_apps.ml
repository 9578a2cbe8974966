(* Tests for the KV store, the exchange codec/service, and the client
   transport models. *)

open Apps

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- KV store ------------------------------------------------------------ *)

let kv_basic_ops () =
  let s = Kv_store.create () in
  check "miss" true (Kv_store.apply s (Kv_store.Get { key = "a" }) = Kv_store.Not_found);
  check "put" true (Kv_store.apply s (Kv_store.Put { key = "a"; value = "1" }) = Kv_store.Stored);
  check "hit" true (Kv_store.apply s (Kv_store.Get { key = "a" }) = Kv_store.Value "1");
  check "overwrite" true
    (Kv_store.apply s (Kv_store.Put { key = "a"; value = "2" }) = Kv_store.Stored);
  check "new value" true (Kv_store.apply s (Kv_store.Get { key = "a" }) = Kv_store.Value "2");
  check "delete" true (Kv_store.apply s (Kv_store.Delete { key = "a" }) = Kv_store.Deleted);
  check "delete missing" true
    (Kv_store.apply s (Kv_store.Delete { key = "a" }) = Kv_store.Not_found);
  check_int "size" 0 (Kv_store.size s)

let kv_codec_roundtrip () =
  let cases =
    [
      Kv_store.Get { key = "some-key" };
      Kv_store.Put { key = "k"; value = String.make 300 'v' };
      Kv_store.Delete { key = "" };
    ]
  in
  List.iter
    (fun cmd ->
      match Kv_store.decode_command (Kv_store.encode_command ~client:7 ~req_id:42 cmd) with
      | Some (7, 42, cmd') -> check "roundtrip" true (cmd = cmd')
      | _ -> Alcotest.fail "decode failed")
    cases

let kv_reply_codec_roundtrip () =
  List.iter
    (fun r ->
      check "reply roundtrip" true (Kv_store.decode_reply (Kv_store.encode_reply r) = Some r))
    [ Kv_store.Value "abc"; Kv_store.Value ""; Kv_store.Not_found; Kv_store.Stored; Kv_store.Deleted ]

let kv_codec_rejects_garbage () =
  check "empty" true (Kv_store.decode_command Bytes.empty = None);
  check "junk" true (Kv_store.decode_command (Bytes.of_string "ZZZZZZZZZZZZ") = None)

let kv_dedup_suppresses_duplicates () =
  let s = Kv_store.create () in
  let cmd = Kv_store.Put { key = "x"; value = "1" } in
  ignore (Kv_store.apply_dedup s ~client:1 ~req_id:5 cmd);
  ignore (Kv_store.apply s (Kv_store.Put { key = "x"; value = "2" }));
  (* Re-delivery of request 5 must not clobber the newer value. *)
  let r = Kv_store.apply_dedup s ~client:1 ~req_id:5 cmd in
  check "cached reply" true (Kv_store.decode_reply r = Some Kv_store.Stored);
  check "state preserved" true (Kv_store.find s "x" = Some "2");
  (* Sessions are monotone: a retransmission overtaken by the client's
     next request is a duplicate too. *)
  ignore (Kv_store.apply_dedup s ~client:1 ~req_id:6 (Kv_store.Delete { key = "x" }));
  ignore (Kv_store.apply_dedup s ~client:2 ~req_id:1 (Kv_store.Put { key = "x"; value = "3" }));
  ignore (Kv_store.apply_dedup s ~client:1 ~req_id:5 cmd);
  ignore (Kv_store.apply_dedup s ~client:1 ~req_id:6 (Kv_store.Delete { key = "x" }));
  check "older requests not re-run" true (Kv_store.find s "x" = Some "3")

let kv_snapshot_restore () =
  let s = Kv_store.create () in
  for i = 1 to 100 do
    ignore (Kv_store.apply s (Kv_store.Put { key = string_of_int i; value = String.make i 'x' }))
  done;
  let s' = Kv_store.restore (Kv_store.snapshot s) in
  check_int "size" 100 (Kv_store.size s');
  check "spot check" true (Kv_store.find s' "37" = Some (String.make 37 'x'))

(* A replica that installs a checkpoint (§5.4) keeps every session: a
   request re-delivered after the restore is still a duplicate. *)
let kv_sessions_survive_checkpoint () =
  let put client v =
    Kv_store.encode_command ~client ~req_id:1 (Kv_store.Put { key = "a"; value = v })
  in
  let app = Kv_store.smr_app () in
  ignore (app.Mu.Smr.apply (put 1 "x"));
  ignore (app.Mu.Smr.apply (put 2 "y"));
  let app2 = Kv_store.smr_app () in
  app2.Mu.Smr.install (app.Mu.Smr.snapshot ());
  check "duplicate answers its reply" true
    (Kv_store.decode_reply (app2.Mu.Smr.apply (put 1 "x")) = Some Kv_store.Stored);
  let get = Kv_store.encode_command ~client:3 ~req_id:1 (Kv_store.Get { key = "a" }) in
  check "not re-run" true (Kv_store.decode_reply (app2.Mu.Smr.apply get) = Some (Kv_store.Value "y"))

let kv_smr_app_end_to_end () =
  let app = Kv_store.smr_app () in
  let put = Kv_store.encode_command ~client:1 ~req_id:1 (Kv_store.Put { key = "k"; value = "v" }) in
  let get = Kv_store.encode_command ~client:1 ~req_id:2 (Kv_store.Get { key = "k" }) in
  ignore (app.Mu.Smr.apply put);
  check "get through app" true
    (Kv_store.decode_reply (app.Mu.Smr.apply get) = Some (Kv_store.Value "v"));
  (* Checkpoint/restore through the app interface. *)
  let app2 = Kv_store.smr_app () in
  app2.Mu.Smr.install (app.Mu.Smr.snapshot ());
  check "restored app serves" true
    (Kv_store.decode_reply (app2.Mu.Smr.apply get) = Some (Kv_store.Value "v"))

(* --- Exchange codec -------------------------------------------------------- *)

let exchange_command_roundtrip () =
  let cases =
    [
      Exchange.Limit { id = 1; side = Order_book.Buy; price = 100; qty = 5 };
      Exchange.Limit { id = 2; side = Order_book.Sell; price = 3; qty = 1 };
      Exchange.Market { id = 3; side = Order_book.Buy; qty = 9 };
      Exchange.Cancel { id = 4 };
      Exchange.Replace { id = 5; price = Some 7; qty = 2 };
      Exchange.Replace { id = 6; price = None; qty = 8 };
    ]
  in
  List.iter
    (fun cmd ->
      check "roundtrip" true (Exchange.decode_command (Exchange.encode_command cmd) = Some cmd))
    cases

let exchange_payload_is_32_bytes () =
  (* The paper's Liquibook integration uses 32-byte orders (Fig. 3). *)
  check_int "frame size" 32
    (Exchange.command_size (Exchange.Limit { id = 1; side = Order_book.Buy; price = 1; qty = 1 }))

let exchange_events_roundtrip () =
  let events =
    [
      Order_book.Accepted { id = 1 };
      Order_book.Filled { taker = 1; maker = 2; price = 100; qty = 5 };
      Order_book.Done { id = 2 };
      Order_book.Cancelled { id = 3; remaining = 4 };
      Order_book.Replaced { id = 5 };
      Order_book.Rejected { id = 6; reason = "" };
    ]
  in
  check "roundtrip" true (Exchange.decode_events (Exchange.encode_events events) = events)

let exchange_smr_app_matching () =
  let app = Exchange.smr_app () in
  let submit cmd = Exchange.decode_events (app.Mu.Smr.apply (Exchange.encode_command cmd)) in
  ignore (submit (Exchange.Limit { id = 1; side = Order_book.Sell; price = 100; qty = 5 }));
  let ev = submit (Exchange.Limit { id = 2; side = Order_book.Buy; price = 100; qty = 5 }) in
  check "trade through replicated app" true
    (List.exists
       (function
         | Order_book.Filled { taker = 2; maker = 1; price = 100; qty = 5 } -> true
         | _ -> false)
       ev)

let exchange_determinism_across_replicas () =
  (* The same command stream produces identical books — required for SMR. *)
  let rng = Sim.Rng.create 5L in
  let flow = Workload.Generators.order_flow rng in
  let cmds = List.init 1_000 (fun _ -> Workload.Generators.next_order flow) in
  let run () =
    let app = Exchange.smr_app () in
    List.map (fun c -> Bytes.to_string (app.Mu.Smr.apply (Exchange.encode_command c))) cmds
  in
  check "identical responses" true (run () = run ())

(* --- Transport ------------------------------------------------------------- *)

let transport_latency_scales () =
  let e = Util.engine () in
  let rng = Sim.Rng.split (Sim.Engine.rng e) in
  let median kind =
    let t = Transport.create kind Util.default_cal rng in
    let s = Sim.Stats.Samples.create () in
    for _ = 1 to 2_000 do
      Sim.Stats.Samples.add s (Transport.rtt_sample t)
    done;
    Sim.Stats.Samples.median s
  in
  let herd = median Transport.Herd_rdma in
  let erpc = median Transport.Erpc in
  let mcd = median Transport.Tcp_memcached in
  check "herd ~2us" true (herd > 1_500 && herd < 3_500);
  check "erpc a few us" true (erpc > 2_000 && erpc < 5_000);
  check "tcp ~100us" true (mcd > 80_000 && mcd < 200_000);
  check "ordering" true (herd < erpc && erpc < mcd)

let transport_legs_sum_to_rtt () =
  let e = Util.engine () in
  let t = Transport.create Transport.Erpc Util.default_cal (Sim.Rng.split (Sim.Engine.rng e)) in
  for _ = 1 to 100 do
    let rtt = Transport.rtt_sample t in
    check_int "split" rtt (Transport.request_leg t rtt + Transport.response_leg t rtt)
  done

let transport_payload_sizes () =
  check_int "liquibook 32B" 32 (Transport.payload_size Transport.Erpc);
  check_int "herd 50B" 50 (Transport.payload_size Transport.Herd_rdma);
  check_int "kv 64B" 64 (Transport.payload_size Transport.Tcp_memcached)

let suite =
  [
    ("kv basic ops", `Quick, kv_basic_ops);
    ("kv codec roundtrip", `Quick, kv_codec_roundtrip);
    ("kv reply codec roundtrip", `Quick, kv_reply_codec_roundtrip);
    ("kv codec rejects garbage", `Quick, kv_codec_rejects_garbage);
    ("kv dedup suppresses duplicates", `Quick, kv_dedup_suppresses_duplicates);
    ("kv snapshot/restore", `Quick, kv_snapshot_restore);
    ("kv smr app end to end", `Quick, kv_smr_app_end_to_end);
    ("exchange command roundtrip", `Quick, exchange_command_roundtrip);
    ("exchange payload is 32 bytes", `Quick, exchange_payload_is_32_bytes);
    ("exchange events roundtrip", `Quick, exchange_events_roundtrip);
    ("exchange smr app matching", `Quick, exchange_smr_app_matching);
    ("exchange determinism", `Quick, exchange_determinism_across_replicas);
    ("transport latency scales", `Quick, transport_latency_scales);
    ("transport legs sum to rtt", `Quick, transport_legs_sum_to_rtt);
    ("transport payload sizes", `Quick, transport_payload_sizes);
    ("kv sessions survive a checkpoint", `Quick, kv_sessions_survive_checkpoint);
  ]

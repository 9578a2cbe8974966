(* Tests for the executable HERD-style server, standalone and composed
   with Mu replication as in Fig. 1. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let kv_handler () =
  let store = Apps.Kv_store.create () in
  fun payload ->
    match Apps.Kv_store.decode_command payload with
    | Some (client, req_id, cmd) ->
      Apps.Kv_store.apply_dedup store ~client ~req_id cmd
    | None -> Bytes.empty

let with_sim f =
  let e = Util.engine () in
  let result = ref None in
  Sim.Engine.spawn e ~name:"driver" (fun () ->
      result := Some (f e);
      Sim.Engine.halt e);
  Sim.Engine.run ~until:120_000_000_000 e;
  match !result with Some r -> r | None -> Alcotest.fail "did not finish"

let rpc_roundtrip () =
  with_sim (fun e ->
      let srv_host = Util.host e ~id:10 in
      let srv = Apps.Herd.server e Util.default_cal ~host:srv_host ~clients:2 ~handler:(kv_handler ()) in
      let cl_host = Util.host e ~id:11 in
      let cl = Apps.Herd.connect srv ~id:0 ~host:cl_host in
      let put =
        Apps.Herd.call cl
          (Apps.Kv_store.encode_command ~client:1 ~req_id:1
             (Apps.Kv_store.Put { key = "k"; value = "v" }))
      in
      check "stored" true (Apps.Kv_store.decode_reply put = Some Apps.Kv_store.Stored);
      let got =
        Apps.Herd.call cl
          (Apps.Kv_store.encode_command ~client:1 ~req_id:2 (Apps.Kv_store.Get { key = "k" }))
      in
      check "value back" true
        (Apps.Kv_store.decode_reply got = Some (Apps.Kv_store.Value "v")))

let rpc_latency_is_microseconds () =
  with_sim (fun e ->
      let srv_host = Util.host e ~id:10 in
      let srv = Apps.Herd.server e Util.default_cal ~host:srv_host ~clients:1 ~handler:Fun.id in
      let cl = Apps.Herd.connect srv ~id:0 ~host:(Util.host e ~id:11) in
      let s = Sim.Stats.Samples.create () in
      for _ = 1 to 500 do
        let t0 = Sim.Engine.now e in
        ignore (Apps.Herd.call cl (Bytes.make 50 'h'));
        Sim.Stats.Samples.add s (Sim.Engine.now e - t0)
      done;
      let m = Sim.Stats.Samples.median s in
      (* The paper's HERD: ~2.25 us client-to-client. *)
      check (Printf.sprintf "~2 us (%dns)" m) true (m > 1_200 && m < 3_200))

let concurrent_clients_isolated () =
  with_sim (fun e ->
      let srv_host = Util.host e ~id:10 in
      let srv = Apps.Herd.server e Util.default_cal ~host:srv_host ~clients:3 ~handler:Fun.id in
      let results = Array.make 3 "" in
      let done_count = ref 0 in
      for i = 0 to 2 do
        let cl = Apps.Herd.connect srv ~id:i ~host:(Util.host e ~id:(20 + i)) in
        Sim.Engine.spawn e ~name:(Printf.sprintf "cl%d" i) (fun () ->
            for k = 1 to 20 do
              let payload = Bytes.of_string (Printf.sprintf "c%d-%d" i k) in
              let r = Apps.Herd.call cl payload in
              if not (Bytes.equal r payload) then
                Alcotest.fail "response crossed between clients";
              results.(i) <- Bytes.to_string r
            done;
            incr done_count)
      done;
      Util.wait_for (fun () -> !done_count = 3) e;
      Array.iteri
        (fun i r -> check_int "last echo" 0 (compare r (Printf.sprintf "c%d-20" i)))
        results)

let oversized_request_rejected () =
  with_sim (fun e ->
      let srv_host = Util.host e ~id:10 in
      let srv = Apps.Herd.server e Util.default_cal ~host:srv_host ~clients:1 ~handler:Fun.id in
      let cl = Apps.Herd.connect srv ~id:0 ~host:(Util.host e ~id:11) in
      check "raises" true
        (try
           ignore (Apps.Herd.call cl (Bytes.make 1_000 'x'));
           false
         with Invalid_argument _ -> true))

(* HERD replicated with Mu, composed as in Fig. 1: the server captures the
   request, proposes it, and only then executes and responds. *)
let herd_over_mu () =
  let e = Util.engine () in
  let smr = Util.mu_cluster e in
  let result = ref None in
  Sim.Engine.spawn e ~name:"driver" (fun () ->
      let leader = Util.leader_of smr e in
      (* Establish leadership first. *)
      let established = Sim.Engine.Ivar.create e in
      Sim.Host.spawn leader.Mu.Replica.host ~name:"establish" (fun () ->
          (try ignore (Mu.Replication.propose leader (Bytes.of_string "boot"))
           with Mu.Replication.Aborted _ -> ());
          Sim.Engine.Ivar.fill established ());
      Sim.Engine.Ivar.read established;
      let store = Apps.Kv_store.create () in
      let handler payload =
        (* Capture-replicate-execute on the leader host (Fig. 1). *)
        (try ignore (Mu.Replication.propose leader payload)
         with Mu.Replication.Aborted _ -> ());
        match Apps.Kv_store.decode_command payload with
        | Some (client, req_id, cmd) ->
          Apps.Kv_store.apply_dedup store ~client ~req_id cmd
        | None -> Bytes.empty
      in
      let srv =
        Apps.Herd.server e Util.default_cal ~host:leader.Mu.Replica.host ~clients:1 ~handler
      in
      let cl = Apps.Herd.connect srv ~id:0 ~host:(Util.host e ~id:30) in
      let s = Sim.Stats.Samples.create () in
      for i = 1 to 300 do
        let t0 = Sim.Engine.now e in
        ignore
          (Apps.Herd.call cl
             (Apps.Kv_store.encode_command ~client:1 ~req_id:i
                (Apps.Kv_store.Put { key = string_of_int (i mod 10); value = "v" })));
        Sim.Stats.Samples.add s (Sim.Engine.now e - t0)
      done;
      result := Some (Sim.Stats.Samples.median s);
      Mu.Smr.stop smr;
      Sim.Engine.halt e);
  Sim.Engine.run ~until:120_000_000_000 e;
  match !result with
  | Some m ->
    (* Paper: HERD 2.25 us + Mu 1.34 us ≈ 3.6 us. *)
    check (Printf.sprintf "HERD+Mu ~3.5-4.5us (%dns)" m) true (m > 2_800 && m < 4_800)
  | None -> Alcotest.fail "did not finish"

(* --- eRPC layer -------------------------------------------------------- *)

let erpc_roundtrip () =
  with_sim (fun e ->
      let srv_host = Util.host e ~id:10 in
      let srv =
        Apps.Erpc.server e Util.default_cal ~host:srv_host
          ~handler:(fun req -> Bytes.cat (Bytes.of_string "re:") req)
      in
      let cl = Apps.Erpc.connect srv ~host:(Util.host e ~id:11) in
      Alcotest.(check string) "echoed" "re:ping" (Bytes.to_string (Apps.Erpc.call cl (Bytes.of_string "ping")));
      Alcotest.(check string) "second call" "re:pong" (Bytes.to_string (Apps.Erpc.call cl (Bytes.of_string "pong"))))

let erpc_multiple_clients () =
  with_sim (fun e ->
      let srv_host = Util.host e ~id:10 in
      let srv = Apps.Erpc.server e Util.default_cal ~host:srv_host ~handler:Fun.id in
      let done_count = ref 0 in
      for i = 0 to 2 do
        let cl = Apps.Erpc.connect srv ~host:(Util.host e ~id:(20 + i)) in
        Sim.Engine.spawn e ~name:(Printf.sprintf "c%d" i) (fun () ->
            for k = 1 to 15 do
              let p = Bytes.of_string (Printf.sprintf "m%d-%d" i k) in
              if not (Bytes.equal (Apps.Erpc.call cl p) p) then
                Alcotest.fail "responses crossed";
              ignore k
            done;
            incr done_count)
      done;
      Util.wait_for (fun () -> !done_count = 3) e;
      check_int "all clients done" 3 !done_count)

let erpc_latency_has_heavy_tail () =
  with_sim (fun e ->
      let srv_host = Util.host e ~id:10 in
      let srv = Apps.Erpc.server e Util.default_cal ~host:srv_host ~handler:Fun.id in
      let cl = Apps.Erpc.connect srv ~host:(Util.host e ~id:11) in
      let s = Sim.Stats.Samples.create () in
      for _ = 1 to 1_500 do
        let t0 = Sim.Engine.now e in
        ignore (Apps.Erpc.call cl (Bytes.make 32 'e'));
        Sim.Stats.Samples.add s (Sim.Engine.now e - t0)
      done;
      let med = Sim.Stats.Samples.median s and p99 = Sim.Stats.Samples.percentile s 99.0 in
      (* The paper's Liquibook latency is wide even unreplicated (§7.2);
         the eRPC layer carries that tail. *)
      check (Printf.sprintf "p99 %.1fx median" (float_of_int p99 /. float_of_int med)) true
        (p99 > 2 * med))

let erpc_oversized_rejected () =
  with_sim (fun e ->
      let srv_host = Util.host e ~id:10 in
      let srv = Apps.Erpc.server e Util.default_cal ~host:srv_host ~handler:Fun.id in
      let cl = Apps.Erpc.connect srv ~host:(Util.host e ~id:11) in
      check "raises" true
        (try
           ignore (Apps.Erpc.call cl (Bytes.make 4_096 'x'));
           false
         with Invalid_argument _ -> true))

let suite =
  [
    ("rpc roundtrip", `Quick, rpc_roundtrip);
    ("rpc latency ~2us", `Quick, rpc_latency_is_microseconds);
    ("concurrent clients isolated", `Quick, concurrent_clients_isolated);
    ("oversized request rejected", `Quick, oversized_request_rejected);
    ("herd over mu (Fig. 1 composition)", `Quick, herd_over_mu);
    ("erpc roundtrip", `Quick, erpc_roundtrip);
    ("erpc multiple clients", `Quick, erpc_multiple_clients);
    ("erpc latency has heavy tail", `Quick, erpc_latency_has_heavy_tail);
    ("erpc oversized rejected", `Quick, erpc_oversized_rejected);
  ]

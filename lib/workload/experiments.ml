type setup = {
  seed : int64;
  faults : Faults.Scenario.t option;
  on_engine : (Sim.Engine.t -> unit) option;
}

let default_setup = { seed = 42L; faults = None; on_engine = None }

let cal = Sim.Calibration.default

(* Each engine is fresh (virtual time restarts at 0), so a shared sampler
   opens a new epoch per engine; the sampler fiber ticks on virtual time
   and dies with the engine. *)
let attach_sampler sampler e =
  Sim.Engine.set_metrics e (Telemetry.Sampler.registry sampler);
  Telemetry.Sampler.start_epoch sampler;
  let interval = Telemetry.Sampler.interval sampler in
  Sim.Engine.spawn e ~name:"telemetry-sampler" (fun () ->
      let rec loop () =
        Telemetry.Sampler.tick sampler ~now:(Sim.Engine.now e);
        Sim.Engine.sleep e interval;
        loop ()
      in
      loop ())

exception Unfinished of { scenario : string; at : int }

(* Run one simulation to completion of the experiment body. *)
let run_sim setup ?until f =
  let e = Sim.Engine.create ~seed:setup.seed () in
  Option.iter (fun f -> f e) setup.on_engine;
  let result = ref None in
  Sim.Engine.spawn e ~name:"experiment" (fun () ->
      result := Some (f e);
      Sim.Engine.halt e);
  Sim.Engine.run ?until e;
  match !result, setup.faults with
  | Some r, _ -> r
  | None, Some sc -> raise (Unfinished { scenario = sc.Faults.Scenario.name; at = Sim.Engine.now e })
  | None, None -> failwith "experiment did not complete (deadlock or until-limit)"

(* A faulted run can stall for good: a measuring fiber parked on a
   killed or isolated host never finishes, while the survivors'
   heartbeats keep the queue busy forever. Such a run gets [budget]
   virtual ns past the scenario's last event; an unfaulted run is
   unbounded. *)
let fault_horizon setup ~budget =
  Option.map
    (fun sc ->
      List.fold_left (fun m ev -> max m ev.Faults.Scenario.at) 0 sc.Faults.Scenario.events
      + budget)
    setup.faults

(* Run [f] in a fiber of [host] and block the calling fiber until done. *)
let on_host ?(name = "driver") host f =
  let done_ = Sim.Engine.Ivar.create (Sim.Host.engine host) in
  Sim.Host.spawn host ~name (fun () ->
      let v = f () in
      Sim.Engine.Ivar.fill done_ v);
  Sim.Engine.Ivar.read done_

(* The latency figures' loop: [warmup] unrecorded calls of [op], then
   [samples] recorded ones. [op i] (i counts from 1 through both) runs
   request [i] and returns its latency. *)
let measure ~warmup ~samples op =
  let out = Sim.Stats.Samples.create () in
  for i = 1 to warmup + samples do
    let ns = op i in
    if i > warmup then Sim.Stats.Samples.add out ns
  done;
  out

(* The virtual ns [f] takes. *)
let timed e f =
  let t0 = Sim.Engine.now e in
  f ();
  Sim.Engine.now e - t0

(* ----------------------------------------------------------------------- *)
(* Fig. 2                                                                   *)
(* ----------------------------------------------------------------------- *)

type fig2_row = {
  log_size : int;
  qp_flags_us : float;
  qp_restart_us : float;
  mr_rereg_us : float;
}

let fig2_permission_switch setup ~samples ~sizes =
  run_sim setup (fun e ->
      let a = Sim.Host.create e cal ~id:0 ~name:"perm-a" in
      let b = Sim.Host.create e cal ~id:1 ~name:"perm-b" in
      let cq_a = Rdma.Cq.create e and cq_b = Rdma.Cq.create e in
      let qa = Rdma.Qp.create a ~cq:cq_a and qb = Rdma.Qp.create b ~cq:cq_b in
      Rdma.Qp.connect qa qb;
      let rng = Sim.Rng.split (Sim.Engine.rng e) in
      on_host a (fun () ->
          List.map
            (fun log_size ->
              let flags = Sim.Stats.Samples.create () in
              let restart = Sim.Stats.Samples.create () in
              let rereg = Sim.Stats.Samples.create () in
              for _ = 1 to samples do
                (* Nothing is in flight, so the flag change cannot fail. *)
                Sim.Stats.Samples.add flags
                  (timed e (fun () ->
                       ignore (Rdma.Perm.change_qp_flags qa Rdma.Verbs.access_rw)));
                Sim.Stats.Samples.add restart (timed e (fun () -> Rdma.Qp.reconnect qa));
                (* MR re-registration cost scales with the region size; we
                   sample the calibrated cost model directly rather than
                   allocating multi-GiB buffers. *)
                Sim.Stats.Samples.add rereg
                  (Sim.Distribution.sample_ns
                     (Sim.Calibration.mr_rereg_time cal ~bytes:log_size)
                     rng)
              done;
              {
                log_size;
                qp_flags_us = Sim.Stats.ns_to_us (Sim.Stats.Samples.median flags);
                qp_restart_us = Sim.Stats.ns_to_us (Sim.Stats.Samples.median restart);
                mr_rereg_us = Sim.Stats.ns_to_us (Sim.Stats.Samples.median rereg);
              })
            sizes))

(* ----------------------------------------------------------------------- *)
(* Fig. 3 / Fig. 4 — replication latency                                    *)
(* ----------------------------------------------------------------------- *)

let standalone_config ?(value_cap = 1024) () =
  {
    Mu.Config.default with
    Mu.Config.log_slots = 16_384;
    recycle_interval = 2_000_000;
    value_cap;
  }

let wait_for_leader e (smr : Mu.Smr.t) =
  let rec go () =
    match Mu.Smr.leader smr with
    | Some r -> r
    | None ->
      Sim.Engine.sleep e 20_000;
      go ()
  in
  go ()

let try_propose leader payload =
  try ignore (Mu.Replication.propose leader payload) with Mu.Replication.Aborted _ -> ()

(* A started Mu cluster over an empty application, with [faults] injected
   over it ({!Chaos.inject}). Only these cluster experiments take a fault
   scenario; the baselines and microbenchmarks build private topologies. *)
let empty_cluster ?client_service ?faults e cfg =
  let smr =
    Mu.Smr.create e cal cfg ~make_app:(fun _ -> Mu.Smr.stateless_app (fun _ -> Bytes.empty))
  in
  Mu.Smr.start ?client_service smr;
  Option.iter (Chaos.inject e smr) faults;
  smr

(* A standalone Smr whose leader has established its followers with one
   "boot" proposal, ready for the Fig. 5 cross-check handlers to
   replicate on. *)
let boot_standalone e cfg =
  let smr = empty_cluster ~client_service:false e cfg in
  let leader = wait_for_leader e smr in
  let established = Sim.Engine.Ivar.create e in
  Sim.Host.spawn leader.Mu.Replica.host ~name:"establish" (fun () ->
      try_propose leader (Bytes.of_string "boot");
      Sim.Engine.Ivar.fill established ());
  Sim.Engine.Ivar.read established;
  (smr, leader)

let mu_latency_with_config setup ~samples ~payload ~attach cfg =
  (* 100 us a request: ~75x the fault-free median. *)
  run_sim setup ?until:(fault_horizon setup ~budget:((samples + 100) * 100_000)) (fun e ->
      let smr =
        empty_cluster ~client_service:false ?faults:setup.faults e { cfg with Mu.Config.attach }
      in
      let leader = wait_for_leader e smr in
      let pid = leader.Mu.Replica.id and host = leader.Mu.Replica.host in
      let rng = Sim.Rng.split (Sim.Engine.rng e) in
      let out =
        on_host host (fun () ->
            measure ~warmup:100 ~samples (fun _ ->
                let value = Mu.Smr.encode_batch [ Generators.payload rng ~size:payload ] in
                (* The request span brackets exactly the measured interval, so
                   its sync children (attach/stage/propose phases) partition
                   the recorded latency. *)
                timed e (fun () ->
                    Sim.Engine.span_scope e ~pid ~args:[ ("len", string_of_int payload) ] "request"
                      (fun () ->
                        Sim.Engine.span_scope e ~pid "attach" (fun () ->
                            Sim.Host.cpu host (Mu.Smr.attach_cost cal attach));
                        Sim.Engine.span_scope e ~pid "stage" (fun () ->
                            Sim.Host.cpu host (Mu.Smr.stage_cost cal payload));
                        try ignore (Mu.Replication.propose leader value)
                        with Mu.Replication.Aborted _ -> Sim.Host.idle host 100_000))))
      in
      Mu.Smr.stop smr;
      out)

let mu_replication_latency setup ~samples ~payload ~attach =
  mu_latency_with_config setup ~samples ~payload ~attach
    (standalone_config ~value_cap:(max 1024 (payload + 64)) ())

let mu_latency_persistence setup ~samples ~persistent =
  mu_latency_with_config setup ~samples ~payload:64 ~attach:Mu.Config.Standalone
    { (standalone_config ()) with Mu.Config.persistent_log = persistent }

let baseline_replication_latency setup ~samples ~system ~payload =
  run_sim setup (fun e ->
      let c = Baselines.Common.create e cal ~n:3 ~mr_size:65_536 in
      let engine =
        match system with
        | `Dare -> Baselines.Dare.create c
        | `Apus -> Baselines.Apus.create c
        | `Hermes -> Baselines.Hermes.create c
        | `Hovercraft -> Baselines.Hovercraft.create c
      in
      let rng = Sim.Rng.split (Sim.Engine.rng e) in
      on_host c.Baselines.Common.hosts.(0) (fun () ->
          measure ~warmup:100 ~samples (fun _ ->
              engine.Baselines.Common.replicate (Generators.payload rng ~size:payload))))

(* ----------------------------------------------------------------------- *)
(* Fig. 5 — end-to-end latency                                              *)
(* ----------------------------------------------------------------------- *)

type e2e_system = Unreplicated | With_mu | With_apus | Dare_kv

let end_to_end_latency setup ~samples ~app ~system =
  run_sim setup (fun e ->
      let rng = Sim.Rng.split (Sim.Engine.rng e) in
      let transport = Apps.Transport.create app cal (Sim.Rng.split (Sim.Engine.rng e)) in
      let compute = Apps.Transport.app_compute app cal in
      (* Request generator: real commands for the real application. *)
      let flow = Generators.order_flow rng in
      let next_request req_id =
        match app with
        | Apps.Transport.Erpc -> Apps.Exchange.encode_command (Generators.next_order flow)
        | Apps.Transport.Tcp_memcached | Apps.Transport.Tcp_redis | Apps.Transport.Herd_rdma
          ->
          Apps.Kv_store.encode_command ~client:1 ~req_id
            (Generators.kv_command rng Generators.default_kv_mix ~client:1 ~req_id)
      in
      let make_app () =
        match app with
        | Apps.Transport.Erpc -> Apps.Exchange.smr_app ()
        | Apps.Transport.Tcp_memcached | Apps.Transport.Tcp_redis | Apps.Transport.Herd_rdma
          ->
          Apps.Kv_store.smr_app ()
      in
      (* The server-side handler: takes a request, returns when the reply
         would leave the server. *)
      let serve =
        match system with
        | Unreplicated ->
          let host = Sim.Host.create e cal ~id:100 ~name:"server" in
          let application = make_app () in
          fun payload ->
            on_host host (fun () ->
                Sim.Host.cpu host compute;
                ignore (application.Mu.Smr.apply payload))
        | With_mu ->
          let attach =
            match app with
            | Apps.Transport.Erpc | Apps.Transport.Herd_rdma -> Mu.Config.Direct
            | Apps.Transport.Tcp_memcached | Apps.Transport.Tcp_redis -> Mu.Config.Handover
          in
          let cfg = { (standalone_config ()) with Mu.Config.attach } in
          let smr = Mu.Smr.create e cal cfg ~make_app:(fun _ -> make_app ()) in
          Mu.Smr.start smr;
          Mu.Smr.wait_live smr;
          (* Application compute happens after replication at the leader;
             the submit path already charges capture and staging costs. *)
          fun payload ->
            let leader_host =
              match Mu.Smr.leader smr with
              | Some r -> r.Mu.Replica.host
              | None -> (Mu.Smr.replica smr 0).Mu.Replica.host
            in
            ignore (Mu.Smr.submit smr payload);
            on_host leader_host (fun () -> Sim.Host.cpu leader_host compute)
        | With_apus | Dare_kv ->
          let c = Baselines.Common.create e cal ~n:3 ~mr_size:65_536 in
          let engine =
            match system with
            | With_apus -> Baselines.Apus.create c
            | _ -> Baselines.Dare.create c
          in
          let application = make_app () in
          let host = c.Baselines.Common.hosts.(0) in
          fun payload ->
            on_host host (fun () ->
                ignore (engine.Baselines.Common.replicate payload);
                Sim.Host.cpu host compute;
                ignore (application.Mu.Smr.apply payload))
      in
      (* Closed-loop client. *)
      measure ~warmup:50 ~samples (fun i ->
          let payload = next_request i in
          let rtt = Apps.Transport.rtt_sample transport in
          timed e (fun () ->
              Sim.Engine.sleep e (Apps.Transport.request_leg transport rtt);
              serve payload;
              Sim.Engine.sleep e (Apps.Transport.response_leg transport rtt))))

(* The Fig. 5 cross-checks' server: [execute host] on a fresh
   unreplicated host ([id], [name]), or on the leader of a booted
   standalone cluster after [capture host] and one proposal of the
   request (capture-replicate-execute, Fig. 1). [run handler host]
   drives it. *)
let cross_check_server e ~replicated ~id ~name ?(cfg = standalone_config ())
    ?(capture = ignore) execute run =
  if not replicated then begin
    let host = Sim.Host.create e cal ~id ~name in
    run (execute host) host
  end
  else begin
    let smr, leader = boot_standalone e cfg in
    let host = leader.Mu.Replica.host in
    let out =
      run
        (fun payload ->
          capture host;
          try_propose leader payload;
          execute host payload)
        host
    in
    Mu.Smr.stop smr;
    out
  end

(* HERD measured on the executable server (Apps.Herd) rather than the
   calibrated transport model — a cross-check that the fabric derives the
   same end-to-end numbers the model was pinned to. *)
let herd_real setup ~samples ~replicated =
  run_sim setup (fun e ->
      let run handler host =
        let srv = Apps.Herd.server e cal ~host ~clients:1 ~handler in
        let cl =
          Apps.Herd.connect srv ~id:0
            ~host:(Sim.Host.create e cal ~id:99 ~name:"herd-client")
        in
        measure ~warmup:50 ~samples (fun i ->
            let req =
              Apps.Kv_store.encode_command ~client:1 ~req_id:i
                (Apps.Kv_store.Put { key = string_of_int (i mod 64); value = "v" })
            in
            timed e (fun () -> ignore (Apps.Herd.call cl req)))
      in
      let store = Apps.Kv_store.create () in
      let execute _ payload =
        match Apps.Kv_store.decode_command payload with
        | Some (client, req_id, cmd) ->
          Apps.Kv_store.encode_reply (Apps.Kv_store.apply_dedup store ~client ~req_id cmd)
        | None -> Bytes.empty
      in
      cross_check_server e ~replicated ~id:98 ~name:"herd-server" execute run)

(* Liquibook measured on the executable eRPC layer (Apps.Erpc) with the
   real matching engine, optionally replicated with Mu (direct attach) —
   the other cross-check row of Fig. 5. *)
let liquibook_real setup ~samples ~replicated =
  run_sim setup (fun e ->
      let book = Apps.Order_book.create () in
      let execute host payload =
        Sim.Host.cpu host cal.Sim.Calibration.order_match;
        match Apps.Exchange.decode_command payload with
        | Some cmd -> Apps.Exchange.encode_events (Apps.Exchange.apply book cmd)
        | None -> Bytes.empty
      in
      let run handler host =
        let srv = Apps.Erpc.server e cal ~host ~handler in
        let client_host = Sim.Host.create e cal ~id:97 ~name:"liq-client" in
        let cl = Apps.Erpc.connect srv ~host:client_host in
        let flow = Generators.order_flow (Sim.Rng.split (Sim.Engine.rng e)) in
        on_host ~name:"liq-driver" client_host (fun () ->
            measure ~warmup:50 ~samples (fun _ ->
                let cmd = Apps.Exchange.encode_command (Generators.next_order flow) in
                timed e (fun () -> ignore (Apps.Erpc.call cl cmd))))
      in
      cross_check_server e ~replicated ~id:96 ~name:"liq-server"
        ~cfg:{ (standalone_config ()) with Mu.Config.attach = Mu.Config.Direct }
        ~capture:(fun host -> Sim.Host.cpu host cal.Sim.Calibration.direct_interference)
        execute run)

(* ----------------------------------------------------------------------- *)
(* Fig. 6 — fail-over                                                       *)
(* ----------------------------------------------------------------------- *)

type failover_stats = {
  total : Sim.Stats.Samples.t;
  detection : Sim.Stats.Samples.t;
  switch : Sim.Stats.Samples.t;
}

let failover setup ~rounds =
  (* 100 ms a round: ~35x a fault-free round. *)
  run_sim setup ?until:(fault_horizon setup ~budget:(rounds * 100_000_000)) (fun e ->
      let smr = empty_cluster ?faults:setup.faults e (standalone_config ()) in
      Mu.Smr.wait_live smr;
      let total = Sim.Stats.Samples.create () in
      let detection = Sim.Stats.Samples.create () in
      let switch = Sim.Stats.Samples.create () in
      (* The same phase decomposition, as registry histograms. *)
      let tel_hists =
        match Sim.Engine.metrics e with
        | None -> None
        | Some reg ->
          let h name help =
            Telemetry.Registry.histogram reg ~help name
          in
          Some
            ( h "failover_total_ns" "Failure injection to new leader serving",
              h "failover_detection_ns" "Failure injection to new leader elected",
              h "failover_switch_ns" "Election to confirmed followers ready" )
      in
      let poll = 2_000 in
      let wait_until pred =
        while not (pred ()) do
          Sim.Engine.sleep e poll
        done
      in
      let unique_leader () = Mu.Smr.leader smr in
      (* Stabilize: a unique established leader, scores saturated. An
         injected fault can take it away during the settling sleep. *)
      let rec stable_leader () =
        wait_until (fun () ->
            match unique_leader () with
            | Some r -> not r.Mu.Replica.need_new_followers
            | None -> false);
        Sim.Engine.sleep e 1_500_000;
        match unique_leader () with Some r -> r | None -> stable_leader ()
      in
      for _ = 1 to rounds do
        let leader = stable_leader () in
        let next =
          Array.to_list (Mu.Smr.replicas smr)
          |> List.filter (fun (r : Mu.Replica.t) -> r.Mu.Replica.id <> leader.Mu.Replica.id)
          |> List.map (fun (r : Mu.Replica.t) -> r.Mu.Replica.id)
          |> List.fold_left min max_int
          |> Mu.Smr.replica smr
        in
        let t_fail = Sim.Engine.now e in
        Sim.Host.stop_process leader.Mu.Replica.host;
        (* The fail-over decomposition as spans (cat "failover"): [total]
           wraps a [detect] phase (injection until the next leader's role
           flips) and a [perm_switch] phase (permission acquisition +
           catch-up until the new leader commits). The Fig. 6 acceptance
           check recomputes the paper's ~30% switch share from these. *)
        Sim.Engine.trace_begin e ~cat:"failover" "total";
        Sim.Engine.trace_begin e ~cat:"failover" "detect";
        wait_until (fun () -> Mu.Replica.is_leader next);
        let t_detect = Sim.Engine.now e in
        Sim.Engine.trace_end e ~cat:"failover" "detect";
        Sim.Engine.trace_begin e ~cat:"failover" "perm_switch";
        let fuo_at_detect = Mu.Log.fuo next.Mu.Replica.log in
        wait_until (fun () ->
            (not next.Mu.Replica.need_new_followers)
            && Mu.Log.fuo next.Mu.Replica.log > fuo_at_detect);
        let t_live = Sim.Engine.now e in
        Sim.Engine.trace_end e ~cat:"failover" "perm_switch";
        Sim.Engine.trace_end e ~cat:"failover" "total";
        Sim.Stats.Samples.add total (t_live - t_fail);
        Sim.Stats.Samples.add detection (t_detect - t_fail);
        Sim.Stats.Samples.add switch (t_live - t_detect);
        (match tel_hists with
        | Some (ht, hd, hs) ->
          Telemetry.Hdr.record ht (t_live - t_fail);
          Telemetry.Hdr.record hd (t_detect - t_fail);
          Telemetry.Hdr.record hs (t_live - t_detect)
        | None -> ());
        (* Recovery: the restarted lowest id rejoins and reclaims
           leadership with a full establish, so every round's new leader
           is one the others have not granted yet: two permission changes
           (§7.3). A paused leader that resumes in the idle cluster would
           never ask again, leaving the next round one flag change. *)
        Mu.Smr.restart_replica smr ~id:leader.Mu.Replica.id;
        wait_until (fun () ->
            match unique_leader () with
            | Some r ->
              r.Mu.Replica.id = leader.Mu.Replica.id && not r.Mu.Replica.need_new_followers
            | None -> false)
      done;
      Mu.Smr.stop smr;
      { total; detection; switch })

let dare_failover setup ~rounds =
  run_sim setup (fun e ->
      let c = Baselines.Common.create e cal ~n:3 ~mr_size:65_536 in
      let d = Baselines.Dare_election.create c in
      Baselines.Dare_election.measure_failover d ~rounds)

(* ----------------------------------------------------------------------- *)
(* Fig. 7 — throughput                                                      *)
(* ----------------------------------------------------------------------- *)

type throughput_point = {
  batch : int;
  outstanding : int;
  ops_per_us : float;
  median_latency_ns : int;
  p99_latency_ns : int;
}

(* The closed-loop throughput driver: one fiber per [(name, submit)]
   client, all drawing on one budget of [requests] submissions, the first
   [requests / 10] a warm-up. Returns the steady-state rate (ops/µs) and
   the latency of every submission after the warm-up. *)
let closed_loop e ~requests clients =
  let warmup = requests / 10 in
  let completed = ref 0 in
  let t_start = ref 0 and t_end = ref 0 in
  let lat = Sim.Stats.Samples.create () in
  let all_done = Sim.Engine.Ivar.create e in
  List.iter
    (fun (name, submit) ->
      Sim.Engine.spawn e ~name (fun () ->
          let rec loop () =
            if !completed < requests then begin
              let ns = timed e submit in
              incr completed;
              if !completed > warmup then Sim.Stats.Samples.add lat ns;
              if !completed = warmup then t_start := Sim.Engine.now e;
              if !completed = requests then begin
                t_end := Sim.Engine.now e;
                ignore (Sim.Engine.Ivar.try_fill all_done ())
              end;
              loop ()
            end
          in
          loop ()))
    clients;
  Sim.Engine.Ivar.read all_done;
  (float_of_int (requests - warmup) *. 1000.0 /. float_of_int (max 1 (!t_end - !t_start)), lat)

let throughput_point setup ~requests ~batch ~outstanding =
  run_sim setup (fun e ->
      let value_cap = max 1024 ((batch * 80) + 64) in
      (* Size the log to hold the whole run, as the paper's setup does (a
         4 GiB log never wraps within 1 M samples), so recycling traffic
         does not share the wire with the measured requests. *)
      let cfg =
        {
          Mu.Config.default with
          Mu.Config.log_slots = (requests / batch) + 1_024;
          value_cap;
          max_batch = batch;
          max_outstanding = outstanding;
          recycle_interval = 1_000_000_000;
          recycle_slack = 128;
        }
      in
      let smr = empty_cluster e cfg in
      Mu.Smr.wait_live smr;
      let rng = Sim.Rng.split (Sim.Engine.rng e) in
      let clients = max 1 ((batch * outstanding) + if batch > 1 then batch else 0) in
      let submit () =
        ignore
          (Sim.Engine.Ivar.read
             (Mu.Smr.submit_async ~retry:false smr (Generators.payload rng ~size:64)))
      in
      let ops_per_us, lat = closed_loop e ~requests (List.init clients (fun _ -> ("client", submit))) in
      Mu.Smr.stop smr;
      {
        batch;
        outstanding;
        ops_per_us;
        median_latency_ns = Sim.Stats.Samples.median lat;
        p99_latency_ns = Sim.Stats.Samples.percentile lat 99.0;
      })

let sharded_throughput setup ~requests ~shards =
  run_sim setup (fun e ->
      let cfg =
        {
          Mu.Config.default with
          Mu.Config.log_slots = (requests / shards) + 2_048;
          max_outstanding = 2;
          recycle_interval = 1_000_000_000;
        }
      in
      let s =
        Mu.Sharded.create e cal cfg ~shards ~make_app:(fun ~shard:_ ~replica:_ ->
            Mu.Smr.stateless_app (fun _ -> Bytes.empty))
      in
      Mu.Sharded.start s;
      Mu.Sharded.wait_live s;
      let rng = Sim.Rng.split (Sim.Engine.rng e) in
      (* A few closed-loop clients per shard, each on its own key space so
         operations commute across shards. *)
      let clients_per_shard = 4 in
      let clients =
        List.concat_map
          (fun shard ->
            let key = Printf.sprintf "shard%d" shard in
            List.init clients_per_shard (fun c ->
                ( Printf.sprintf "client-%d-%d" shard (c + 1),
                  fun () -> ignore (Mu.Sharded.submit s ~key (Generators.payload rng ~size:64)) )))
          (List.init shards Fun.id)
      in
      let ops_per_us, _ = closed_loop e ~requests clients in
      Mu.Sharded.stop s;
      ops_per_us)

(* ----------------------------------------------------------------------- *)
(* Ablations                                                                *)
(* ----------------------------------------------------------------------- *)

let ablation_omit_prepare setup ~samples =
  let with_opt =
    mu_replication_latency setup ~samples ~payload:64 ~attach:Mu.Config.Standalone
  in
  let without_opt =
    mu_latency_with_config setup ~samples ~payload:64 ~attach:Mu.Config.Standalone
      { (standalone_config ()) with Mu.Config.disable_omit_prepare = true }
  in
  (with_opt, without_opt)

let ablation_permissions setup ~samples =
  let mu =
    mu_replication_latency setup ~samples ~payload:64 ~attach:Mu.Config.Standalone
  in
  (* Disk-Paxos-style race detection: without permissions, a leader must
     re-read the slot after writing it to detect a concurrent leader,
     doubling the round trips (§4.1, [23]). *)
  let disk_paxos =
    run_sim setup (fun e ->
        let c = Baselines.Common.create e cal ~n:3 ~mr_size:65_536 in
        let rng = Sim.Rng.split (Sim.Engine.rng e) in
        let followers = [ 1; 2 ] in
        let needed = 1 in
        (* One round to every follower: the quorum's completions, then the
           stragglers'. *)
        let round post =
          List.iter post followers;
          Baselines.Common.await_successes c ~node:0 ~count:needed;
          Baselines.Common.await_successes c ~node:0 ~count:(List.length followers - needed)
        in
        let wr = ref 0 in
        let readback = Bytes.create 128 in
        on_host c.Baselines.Common.hosts.(0) (fun () ->
            measure ~warmup:100 ~samples (fun _ ->
                let payload = Generators.payload rng ~size:64 in
                timed e (fun () ->
                    round (fun j ->
                        Baselines.Common.write_to c ~src:0 ~dst:j ~data:payload ~off:0);
                    round (fun j ->
                        incr wr;
                        Rdma.Qp.post_read
                          c.Baselines.Common.qps.(0).(j)
                          ~wr_id:!wr ~dst:readback ~dst_off:0 ~len:64
                          ~mr:c.Baselines.Common.mrs.(j) ~src_off:0)))))
  in
  (mu, disk_paxos)

type fd_result = {
  detector : string;
  detection_us : float;
  false_positives : int;
  observation_s : float;
}

(* A wire with rare multi-millisecond delay spikes: the regime where push
   heartbeats need large timeouts but pull-score does not (§5.1). *)
let spiky_cal cal =
  {
    cal with
    Sim.Calibration.wire =
      Sim.Distribution.Mixture
        [
          (0.9995, cal.Sim.Calibration.wire);
          (0.0005, Sim.Distribution.Uniform { lo = 500_000.0; hi = 3_000_000.0 });
        ];
  }

(* One detector run on a fresh engine, unobserved like every detector
   run: a "leader" host [a] and a "monitor" host [b] joined by one
   connected QP pair. [detector] gets each end as (host, qp, cq) and
   returns the leader's heartbeat fiber (name, one beat) and the
   monitor's checker (name, period, one judgement: [Some false] dead,
   [Some true] alive, [None] no change). Each alive-to-dead edge is a
   false positive while the leader is up, and the detection latency once
   a [fail] run pauses it at [quiet_ns]; that run gets [grace] ns more. *)
let fd_run setup cal ~quiet_ns ~grace ~fail detector =
  let e = Sim.Engine.create ~seed:setup.seed () in
  let a = Sim.Host.create e cal ~id:0 ~name:"leader" in
  let b = Sim.Host.create e cal ~id:1 ~name:"monitor" in
  let cq_a = Rdma.Cq.create e and cq_b = Rdma.Cq.create e in
  let qa = Rdma.Qp.create a ~cq:cq_a and qb = Rdma.Qp.create b ~cq:cq_b in
  Rdma.Qp.connect qa qb;
  Rdma.Qp.set_access qa Rdma.Verbs.access_rw;
  Rdma.Qp.set_access qb Rdma.Verbs.access_rw;
  let (hb_name, beat), (check_name, period, judge) = detector e (a, qa, cq_a) (b, qb, cq_b) in
  let rec forever f () =
    f ();
    forever f ()
  in
  Sim.Host.spawn a ~name:hb_name (forever beat);
  if fail then Sim.Engine.schedule e ~at:quiet_ns (fun () -> Sim.Host.pause a);
  let fps = ref 0 and detected_at = ref None and alive = ref true in
  Sim.Host.spawn b ~name:check_name
    (forever (fun () ->
         Sim.Host.idle b period;
         match judge () with
         | Some false when !alive ->
           alive := false;
           if Sim.Engine.now e < quiet_ns || not fail then incr fps
           else if !detected_at = None then detected_at := Some (Sim.Engine.now e - quiet_ns)
         | Some true when not !alive -> alive := true
         | _ -> ()));
  Sim.Engine.run ~until:(if fail then quiet_ns + grace else quiet_ns) e;
  (!fps, !detected_at)

let ablation_failure_detector setup =
  let cal = spiky_cal cal in
  let quiet_ns = 5_000_000_000 in
  let detector name ~grace wiring =
    let run ~fail = fd_run setup cal ~quiet_ns ~grace ~fail wiring in
    let fps_quiet, _ = run ~fail:false in
    let _, det = run ~fail:true in
    {
      detector = name;
      detection_us = (match det with Some d -> float_of_int d /. 1000.0 | None -> nan);
      false_positives = fps_quiet;
      observation_s = float_of_int quiet_ns /. 1e9;
    }
  in
  (* --- pull-score (Mu, §5.1): the monitor reads the leader's counter --- *)
  let pull =
    detector "pull-score (Mu)" ~grace:50_000_000 (fun _ (a, _, _) (_, qb, cq_b) ->
        let mr_a = Rdma.Mr.register a ~size:64 ~access:Rdma.Verbs.access_rw in
        let beat () =
          Rdma.Mr.set_i64 mr_a ~off:0 (Int64.add (Rdma.Mr.get_i64 mr_a ~off:0) 1L);
          Sim.Host.cpu a cal.Sim.Calibration.hb_increment_interval
        in
        let score = ref cal.Sim.Calibration.score_max in
        let last = ref (-1L) in
        let buf = Bytes.create 8 in
        let wr = ref 0 in
        let judge () =
          incr wr;
          Rdma.Qp.post_read qb ~wr_id:!wr ~dst:buf ~dst_off:0 ~len:8 ~mr:mr_a ~src_off:0;
          ignore (Rdma.Cq.await cq_b);
          let v = Bytes.get_int64_le buf 0 in
          let advanced = Int64.compare v !last > 0 in
          last := v;
          score :=
            min cal.Sim.Calibration.score_max
              (max cal.Sim.Calibration.score_min
                 (if advanced then !score + 1 else !score - 1));
          if !score < cal.Sim.Calibration.score_fail then Some false
          else if !score > cal.Sim.Calibration.score_recover then Some true
          else None
        in
        (("hb", beat), ("monitor", cal.Sim.Calibration.fd_read_interval, judge)))
  in
  (* --- conventional push heartbeats with a timeout --- *)
  let push timeout name =
    detector name ~grace:100_000_000 (fun e (a, qa, cq_a) (b, _, _) ->
        let mr_b = Rdma.Mr.register b ~size:64 ~access:Rdma.Verbs.access_rw in
        let interval = 100_000 in
        let last_arrival = ref 0 in
        Rdma.Mr.watch mr_b ~off:0 ~len:64 (fun ~off:_ ~len:_ -> last_arrival := Sim.Engine.now e);
        let seq = ref 0 in
        let buf = Bytes.create 8 in
        let beat () =
          incr seq;
          Bytes.set_int64_le buf 0 (Int64.of_int !seq);
          Rdma.Qp.post_write qa ~wr_id:!seq ~src:buf ~src_off:0 ~len:8 ~mr:mr_b ~dst_off:0;
          ignore (Rdma.Cq.await cq_a);
          Sim.Host.cpu a interval
        in
        let judge () = Some (Sim.Engine.now e - !last_arrival <= timeout) in
        (("hb-push", beat), ("checker", interval, judge)))
  in
  [
    pull;
    push 1_000_000 "push heartbeat, 1 ms timeout";
    push 10_000_000 "push heartbeat, 10 ms timeout";
  ]

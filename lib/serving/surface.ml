(* The shard-count × batch-size throughput/latency surface: Fig. 7
   extended along the §8 sharding axis. Each point is one fresh
   simulation (Workload.Experiments.run_sim, so tracing/telemetry
   compose) of the serving tier under a saturating open-loop
   population; batch sizes > 1 additionally engage the leader's
   doorbell so slot writes coalesce on the wire. *)

type point = { shards : int; batch : int; doorbell : int; report : Tier.report }

let config ~batch ~doorbell =
  {
    Mu.Config.default with
    Mu.Config.max_batch = batch;
    max_outstanding = 4;
    doorbell;
    log_slots = 8192;
    recycle_slack = 128;
    recycle_interval = 200_000;
    value_cap = max 1024 ((batch * 96) + 64);
  }

let run_point setup ~shards ~batch ?doorbell ~clients ~think_ns ~duration () =
  let doorbell =
    match doorbell with Some d -> d | None -> if batch > 1 then 4 else 1
  in
  Workload.Experiments.run_sim setup ~until:((duration * 50) + 1_000_000_000)
    (fun e ->
      let rng = Sim.Rng.split (Sim.Engine.rng e) in
      let population = Population.create ~clients ~think_ns rng in
      Tier.run e Sim.Calibration.default (config ~batch ~doorbell) ~shards
        ~population ~duration ())

let batching_beats_unbatched points ~batch =
  let cell sc b = List.find_opt (fun p -> p.shards = sc && p.batch = b) points in
  let shard_counts = List.sort_uniq compare (List.map (fun p -> p.shards) points) in
  shard_counts <> []
  && List.for_all
       (fun sc ->
         match (cell sc 1, cell sc batch) with
         | Some p1, Some pk ->
           pk.report.Tier.committed_per_us > p1.report.Tier.committed_per_us
         | _ -> false)
       shard_counts

let sweep setup ~shard_counts ~batches ~clients ~think_ns ~duration =
  List.concat_map
    (fun shards ->
      List.map
        (fun batch ->
          let doorbell = if batch > 1 then 4 else 1 in
          {
            shards;
            batch;
            doorbell;
            report = run_point setup ~shards ~batch ~doorbell ~clients ~think_ns ~duration ();
          })
        batches)
    shard_counts

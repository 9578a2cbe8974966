(** Shard-count × batch-size throughput/latency surface.

    Extends the paper's Fig. 7 (batching/pipelining throughput) along
    the §8 parallel-instances axis: every (shards, batch) cell runs the
    serving tier under the same saturating open-loop population and
    reports offered vs committed req/µs plus tail latency. Batch sizes
    above 1 engage the leader doorbell ({!Mu.Config.t.doorbell}), so
    the surface measures the combined effect of coalescing on the wire
    and sharding across leaders. *)

type point = { shards : int; batch : int; doorbell : int; report : Tier.report }
(** One cell: its coordinates and the tier's report of its run. *)

val config : batch:int -> doorbell:int -> Mu.Config.t
(** The per-point cluster config: pipelined (4 outstanding), fast
    recycling, [value_cap] sized to the batch. *)

val run_point :
  Workload.Experiments.setup ->
  shards:int ->
  batch:int ->
  ?doorbell:int ->
  clients:int ->
  think_ns:int ->
  duration:int ->
  unit ->
  Tier.report
(** One fresh simulation of one cell. [doorbell] defaults to 4 when
    [batch > 1], else 1. *)

val sweep :
  Workload.Experiments.setup ->
  shard_counts:int list ->
  batches:int list ->
  clients:int ->
  think_ns:int ->
  duration:int ->
  point list
(** The full matrix, row-major in [shard_counts]. Deterministic per
    setup seed. *)

val batching_beats_unbatched : point list -> batch:int -> bool
(** The surface's acceptance check: at every shard count in [points],
    the [batch] cell commits more requests per µs than the batch-1
    cell. False when a cell is missing. *)

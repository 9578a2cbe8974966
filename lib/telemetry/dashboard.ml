(* Text dashboard: percentile tables, fail-over phase breakdown, and an
   ASCII score timeline showing follower pull-scores crossing the
   fail (<2) and recover (>6) thresholds during fail-over. *)

(* Pull-score thresholds (fail below, recover above) and the timeline's
   column count. *)
let fail = 2
let recover = 6
let width = 64

let ns_to_us v = float_of_int v /. 1_000.0

let label_string labels =
  if labels = [] then "-"
  else String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let histograms ?prefix reg =
  List.filter_map
    (fun (m : Registry.metric) ->
      match m.kind with
      | Registry.Histogram h ->
        let keep =
          match prefix with
          | None -> true
          | Some p ->
            String.length m.name >= String.length p
            && String.sub m.name 0 (String.length p) = p
        in
        if keep && Hdr.count h > 0 then Some (m, h) else None
      | _ -> None)
    (Registry.metrics reg)

let is_ns (m : Registry.metric) =
  let n = m.name in
  String.length n > 3 && String.sub n (String.length n - 3) 3 = "_ns"

let percentile_table ?prefix reg =
  let hs = histograms ?prefix reg in
  if hs = [] then ""
  else begin
    let b = Buffer.create 1024 in
    let cell h q =
      match Hdr.quantile h q with Some v -> Printf.sprintf "%10.2f" (ns_to_us v) | None -> "         -"
    in
    Buffer.add_string b
      (Printf.sprintf "%-34s %-22s %8s %10s %10s %10s %10s\n" "histogram (us)" "labels" "count"
         "p50" "p90" "p99" "p99.9");
    List.iter
      (fun ((m : Registry.metric), h) ->
        if is_ns m then
          Buffer.add_string b
            (Printf.sprintf "%-34s %-22s %8d %s %s %s %s\n" m.name (label_string m.labels)
               (Hdr.count h) (cell h 0.5) (cell h 0.9) (cell h 0.99) (cell h 0.999)))
      hs;
    Buffer.contents b
  end

let failover_breakdown reg =
  let phases =
    [ ("failover_total_ns", "total"); ("failover_detection_ns", "detection");
      ("failover_switch_ns", "perm_switch") ]
  in
  let get name =
    List.find_map
      (fun ((m : Registry.metric), h) -> if m.name = name then Some h else None)
      (histograms reg)
  in
  match get "failover_total_ns" with
  | None -> ""
  | Some total_h ->
    let total_med = match Hdr.quantile total_h 0.5 with Some v -> v | None -> 0 in
    let b = Buffer.create 512 in
    Buffer.add_string b
      (Printf.sprintf "%-14s %8s %12s %12s %8s\n" "phase" "rounds" "median(us)" "p99(us)" "share");
    List.iter
      (fun (name, label) ->
        match get name with
        | None -> ()
        | Some h ->
          let med = match Hdr.quantile h 0.5 with Some v -> v | None -> 0 in
          let p99 = match Hdr.quantile h 0.99 with Some v -> v | None -> 0 in
          let share =
            if total_med > 0 then
              Printf.sprintf "%6.1f%%" (100.0 *. float_of_int med /. float_of_int total_med)
            else "      -"
          in
          Buffer.add_string b
            (Printf.sprintf "%-14s %8d %12.2f %12.2f %8s\n" label (Hdr.count h) (ns_to_us med)
               (ns_to_us p99) share))
      phases;
    Buffer.contents b

(* --- crash recovery ------------------------------------------------------ *)

(* Rejoin/degradation instruments in one table, keyed by replica label:
   restart-to-parity latency, entries pulled during catch-up, requests
   shed by the queue bound, and quorum-lost window time. Counters don't
   appear in the percentile table, so they get their own section. *)
let recovery_summary reg =
  let counter_value name labels =
    List.find_map
      (fun (m : Registry.metric) ->
        match m.kind with
        | Registry.Counter c when m.name = name && m.labels = labels ->
          Some (Registry.Counter.value c)
        | _ -> None)
      (Registry.metrics reg)
  in
  let rows =
    List.filter_map
      (fun ((m : Registry.metric), h) ->
        if m.name = "mu_rejoin_time_to_parity_ns" then Some (m.labels, h) else None)
      (histograms reg)
  in
  let shed_total =
    List.fold_left
      (fun acc (m : Registry.metric) ->
        match m.kind with
        | Registry.Counter c when m.name = "mu_shed_requests_total" ->
          acc + Registry.Counter.value c
        | _ -> acc)
      0 (Registry.metrics reg)
  in
  let degraded =
    List.filter_map
      (fun ((m : Registry.metric), h) ->
        if m.name = "mu_degraded_ns" then Some h else None)
      (histograms reg)
  in
  if rows = [] && shed_total = 0 && degraded = [] then ""
  else begin
    let b = Buffer.create 512 in
    if rows <> [] then begin
      Buffer.add_string b
        (Printf.sprintf "%-22s %8s %16s %12s\n" "rejoin" "count" "parity p50(us)"
           "entries");
      List.iter
        (fun (labels, h) ->
          let p50 = match Hdr.quantile h 0.5 with Some v -> ns_to_us v | None -> 0. in
          let entries =
            match counter_value "mu_catch_up_entries_total" labels with
            | Some v -> string_of_int v
            | None -> "-"
          in
          Buffer.add_string b
            (Printf.sprintf "%-22s %8d %16.2f %12s\n" (label_string labels)
               (Hdr.count h) p50 entries))
        rows
    end;
    List.iter
      (fun h ->
        let total =
          (* Sum via count * mean is unavailable; report count and p50. *)
          match Hdr.quantile h 0.5 with Some v -> ns_to_us v | None -> 0.
        in
        Buffer.add_string b
          (Printf.sprintf "degraded windows: %d (median %.2f us)\n" (Hdr.count h) total))
      degraded;
    if shed_total > 0 then
      Buffer.add_string b (Printf.sprintf "shed requests: %d\n" shed_total);
    Buffer.contents b
  end

(* --- serving tier -------------------------------------------------------- *)

(* Per-shard serving instruments in one table — queue depth and in-flight
   gauges (their value at the last update), shed/committed/retried
   counters, tier latency percentiles — plus the leaders' batch-occupancy
   histogram (requests coalesced per committed log entry) merged across
   replicas and drawn as an ASCII bar chart. *)
let serving_summary reg =
  let metrics = Registry.metrics reg in
  let shard_of (m : Registry.metric) = List.assoc_opt "shard" m.labels in
  let counter name shard =
    List.find_map
      (fun (m : Registry.metric) ->
        match m.kind with
        | Registry.Counter c when m.name = name && shard_of m = Some shard ->
          Some (Registry.Counter.value c)
        | _ -> None)
      metrics
  in
  let gauge name shard =
    List.find_map
      (fun (m : Registry.metric) ->
        match m.kind with
        | Registry.Gauge g when m.name = name && shard_of m = Some shard ->
          Some (Registry.Gauge.value g)
        | _ -> None)
      metrics
  in
  let hist name shard =
    List.find_map
      (fun (m : Registry.metric) ->
        match m.kind with
        | Registry.Histogram h when m.name = name && shard_of m = Some shard -> Some h
        | _ -> None)
      metrics
  in
  let shards =
    List.filter_map
      (fun (m : Registry.metric) ->
        if m.name = "serving_committed_total" then shard_of m else None)
      metrics
  in
  let occupancy =
    List.filter_map
      (fun (m : Registry.metric) ->
        match m.kind with
        | Registry.Histogram h when m.name = "mu_batch_occupancy" && Hdr.count h > 0 ->
          Some h
        | _ -> None)
      metrics
  in
  if shards = [] && occupancy = [] then ""
  else begin
    let b = Buffer.create 1024 in
    if shards <> [] then begin
      Buffer.add_string b
        (Printf.sprintf "%-6s %6s %9s %9s %7s %8s %10s %10s\n" "shard" "queue" "inflight"
           "committed" "shed" "retried" "p50(us)" "p99(us)");
      List.iter
        (fun shard ->
          let num name = match counter name shard with Some v -> v | None -> 0 in
          let gv name = match gauge name shard with Some v -> v | None -> 0 in
          let pct q =
            match hist "serving_latency_ns" shard with
            | Some h -> (
              match Hdr.quantile h q with
              | Some v -> Printf.sprintf "%10.2f" (ns_to_us v)
              | None -> "         -")
            | None -> "         -"
          in
          Buffer.add_string b
            (Printf.sprintf "%-6s %6d %9d %9d %7d %8d %s %s\n" shard
               (gv "serving_queue_depth") (gv "serving_inflight")
               (num "serving_committed_total") (num "serving_shed_total")
               (num "serving_retried_total") (pct 0.5) (pct 0.99)))
        shards
    end;
    (match occupancy with
    | [] -> ()
    | first :: rest ->
      let merged = Hdr.create ~precision:(Hdr.precision first) () in
      List.iter (fun h -> Hdr.merge ~into:merged h) (first :: rest);
      let bks = Hdr.buckets merged in
      let widest = List.fold_left (fun acc (_, _, c) -> max acc c) 1 bks in
      Buffer.add_string b "batch occupancy (requests per committed entry):\n";
      List.iter
        (fun (lo, hi, count) ->
          let bar = String.make (max 1 (count * 32 / widest)) '#' in
          let label = if lo = hi then string_of_int lo else Printf.sprintf "%d-%d" lo hi in
          Buffer.add_string b (Printf.sprintf "  %-8s %8d |%s\n" label count bar))
        bks);
    Buffer.contents b
  end

(* --- score timeline ------------------------------------------------------ *)

(* One row per (replica, peer, epoch) score series that actually moved.
   Points are downsampled to [width] columns taking the minimum in each
   window (the interesting excursion is downward), rendered as one hex
   digit per column (scores are 0..15). *)

let score_series sampler =
  List.filter_map
    (fun ((m : Registry.metric), epochs) ->
      if m.name = "mu_score" then Some (m, epochs) else None)
    (Sampler.series sampler)

let moved pts =
  Array.exists (fun (_, v) -> v < float_of_int fail) pts
  && Array.exists (fun (_, v) -> v > float_of_int recover) pts

let downsample pts =
  let n = Array.length pts in
  if n = 0 then [||]
  else if n <= width then Array.copy pts
  else
    Array.init width (fun c ->
        let lo = c * n / width and hi = ((c + 1) * n / width) - 1 in
        let hi = max lo hi in
        let best = ref pts.(lo) in
        for i = lo + 1 to hi do
          if snd pts.(i) < snd !best then best := pts.(i)
        done;
        !best)

let glyph v =
  let i = max 0 (min 15 (int_of_float (Float.round v))) in
  "0123456789abcdef".[i]

let first_crossing ~below pts threshold =
  let t = float_of_int threshold in
  let r = ref None in
  Array.iter
    (fun (ts, v) ->
      if !r = None && (if below then v < t else v > t) then r := Some ts)
    pts;
  !r

let fail_recover_pair pts =
  match first_crossing ~below:true pts fail with
  | None -> None
  | Some t_fail ->
    let after = Array.of_seq (Seq.filter (fun (ts, _) -> ts >= t_fail) (Array.to_seq pts)) in
    (match first_crossing ~below:false after recover with
    | None -> None
    | Some t_rec -> Some (t_fail, t_rec))

let has_fail_recover_crossing sampler =
  List.exists
    (fun (_, epochs) ->
      List.exists (fun (_, pts) -> fail_recover_pair pts <> None) epochs)
    (score_series sampler)

let score_timeline sampler =
  let rows =
    List.concat_map
      (fun ((m : Registry.metric), epochs) ->
        List.filter_map
          (fun (eid, pts) ->
            if moved pts then Some (m, eid, pts) else None)
          epochs)
      (score_series sampler)
  in
  if rows = [] then ""
  else begin
    let b = Buffer.create 2048 in
    Buffer.add_string b
      (Printf.sprintf "score timeline (hex 0-f per column; fail <%d, recover >%d)\n" fail recover);
    List.iter
      (fun ((m : Registry.metric), eid, pts) ->
        let ds = downsample pts in
        let line = String.init (Array.length ds) (fun i -> glyph (snd ds.(i))) in
        let annot =
          match fail_recover_pair pts with
          | Some (t_fail, t_rec) ->
            Printf.sprintf "  fail@%.1fus recover@%.1fus" (ns_to_us t_fail) (ns_to_us t_rec)
          | None -> ""
        in
        Buffer.add_string b
          (Printf.sprintf "  %-22s e%-3d |%s|%s\n" (label_string m.labels) eid line annot))
      rows;
    Buffer.contents b
  end

let render ?sampler reg =
  let b = Buffer.create 4096 in
  let section title body =
    if body <> "" then begin
      Buffer.add_string b ("== " ^ title ^ " ==\n");
      Buffer.add_string b body;
      Buffer.add_char b '\n'
    end
  in
  section "latency percentiles" (percentile_table reg);
  section "fail-over breakdown" (failover_breakdown reg);
  section "crash recovery" (recovery_summary reg);
  section "serving tier" (serving_summary reg);
  (match sampler with
  | Some s -> section "failure-detector scores" (score_timeline s)
  | None -> ());
  if Buffer.length b = 0 then "(no telemetry recorded)\n" else Buffer.contents b

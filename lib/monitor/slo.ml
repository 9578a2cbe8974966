(* Streaming SLO windows over sampler snapshots.

   The evaluator is fed the same (metric, value) snapshot the telemetry
   sampler just stored (one registry scan per tick, shared via
   Telemetry.Sampler.subscribe) and closes a window by diffing against
   the previous close: counters yield per-window deltas, histograms
   yield the per-window distribution via Hdr.diff on cumulative
   snapshots. Everything is driven by virtual time and touches no PRNG,
   so equal-seed runs evaluate identical windows. *)

type agg = Max | Sum

type window = {
  index : int;
  t0 : int;
  t1 : int;
  (* name -> (labels, value) series of the closing snapshot, in registry
     (sorted) order *)
  cur : (string, ((string * string) list * float) list) Hashtbl.t;
  deltas : (string, float) Hashtbl.t;  (* counters: sum of per-series deltas *)
  hists : (string, Telemetry.Hdr.t) Hashtbl.t;  (* merged windowed distributions *)
}

type t = {
  prev_vals : (string, float) Hashtbl.t;  (* series key -> value at last close *)
  prev_hists : (string, Telemetry.Hdr.t) Hashtbl.t;  (* series key -> snapshot *)
  mutable index : int;
}

let create () =
  { prev_vals = Hashtbl.create 64; prev_hists = Hashtbl.create 16; index = 0 }

let skey (m : Telemetry.Registry.metric) =
  String.concat "\x00"
    (m.name :: List.concat_map (fun (k, v) -> [ k; v ]) m.labels)

let advance t ~t0 ~t1 samples =
  let w =
    {
      index = t.index;
      t0;
      t1;
      cur = Hashtbl.create 64;
      deltas = Hashtbl.create 32;
      hists = Hashtbl.create 16;
    }
  in
  t.index <- t.index + 1;
  List.iter
    (fun ((m : Telemetry.Registry.metric), v) ->
      let k = skey m in
      let prior = try Hashtbl.find w.cur m.name with Not_found -> [] in
      Hashtbl.replace w.cur m.name (prior @ [ (m.labels, v) ]);
      (match m.kind with
      | Telemetry.Registry.Counter _ ->
        let prev = try Hashtbl.find t.prev_vals k with Not_found -> 0.0 in
        let d = v -. prev in
        let acc = try Hashtbl.find w.deltas m.name with Not_found -> 0.0 in
        Hashtbl.replace w.deltas m.name (acc +. d)
      | Telemetry.Registry.Gauge _ -> ()
      | Telemetry.Registry.Histogram h ->
        (* a histogram's sampled value is its cumulative count, which is
           monotone — expose its window delta like a counter's *)
        let prev = try Hashtbl.find t.prev_vals k with Not_found -> 0.0 in
        let acc = try Hashtbl.find w.deltas m.name with Not_found -> 0.0 in
        Hashtbl.replace w.deltas m.name (acc +. (v -. prev));
        let wh =
          match Hashtbl.find_opt t.prev_hists k with
          | Some since -> Telemetry.Hdr.diff ~since h
          | None -> Telemetry.Hdr.copy h
        in
        Hashtbl.replace t.prev_hists k (Telemetry.Hdr.copy h);
        (match Hashtbl.find_opt w.hists m.name with
        | Some into -> Telemetry.Hdr.merge ~into wh
        | None -> Hashtbl.replace w.hists m.name wh));
      Hashtbl.replace t.prev_vals k v)
    samples;
  w

let index (w : window) = w.index
let t1 (w : window) = w.t1
let span_ns (w : window) = w.t1 - w.t0

let value w agg name =
  match Hashtbl.find_opt w.cur name with
  | None | Some [] -> None
  | Some ((_, v0) :: rest) ->
    Some
      (List.fold_left
         (fun acc (_, v) -> match agg with Max -> Float.max acc v | Sum -> acc +. v)
         v0 rest)

let delta w name = try Hashtbl.find w.deltas name with Not_found -> 0.0

let rate_per_s w name =
  let span = span_ns w in
  if span <= 0 then 0.0 else delta w name *. 1e9 /. float_of_int span

let hist w name =
  match Hashtbl.find_opt w.hists name with
  | Some h when not (Telemetry.Hdr.is_empty h) -> Some h
  | _ -> None

let quantile_ns w name q =
  match hist w name with None -> None | Some h -> Telemetry.Hdr.quantile h q

(* The one exporter: a JSON document printed through the Json codec,
   iterating in Registry/Sampler's canonical sorted order, so two runs
   with equal seeds produce byte-identical files (tier-1 tests: telemetry
   [e2e export deterministic], determinism [fig3/fig6 metrics and
   results]). *)

let quantiles = [ (0.5, "0.5"); (0.9, "0.9"); (0.99, "0.99"); (0.999, "0.999") ]

let json ?sampler reg =
  let open Json in
  let head (m : Registry.metric) =
    [ ("name", Str m.name); ("labels", Obj (List.map (fun (k, v) -> (k, Str v)) m.labels)) ]
  in
  let metric (m : Registry.metric) =
    match m.kind with
    | Registry.Counter c ->
      head m @ [ ("kind", Str "counter"); ("value", num_of_int (Registry.Counter.value c)) ]
    | Registry.Gauge g ->
      head m @ [ ("kind", Str "gauge"); ("value", num_of_int (Registry.Gauge.value g)) ]
    | Registry.Histogram h ->
      let buckets = ref [] in
      Hdr.iter_buckets h (fun ~lo ~hi ~count ->
          buckets := List (List.map num_of_int [ lo; hi; count ]) :: !buckets);
      head m
      @ [
          ("kind", Str "histogram");
          ("count", num_of_int (Hdr.count h));
          ("sum", Num (Hdr.sum h));
        ]
      @ (match Hdr.min_value h, Hdr.max_value h with
        | Some lo, Some hi -> [ ("min", num_of_int lo); ("max", num_of_int hi) ]
        | _ -> [])
      @ [
          ( "quantiles",
            Obj
              (List.filter_map
                 (fun (q, qs) -> Option.map (fun v -> (qs, num_of_int v)) (Hdr.quantile h q))
                 quantiles) );
          ("buckets", List (List.rev !buckets));
        ]
  in
  let series s =
    List.map
      (fun (m, epochs) ->
        let point (ts, v) = List [ num_of_int ts; Num v ] in
        let epoch (eid, pts) =
          Obj [ ("epoch", num_of_int eid); ("points", List (List.map point (Array.to_list pts))) ]
        in
        Obj (head m @ [ ("epochs", List (List.map epoch epochs)) ]))
      (Sampler.series s)
  in
  to_string
    (Obj
       [
         ("schema", Str "mu-telemetry/1");
         ("metrics", List (List.map (fun m -> Obj (metric m)) (Registry.metrics reg)));
         ("series", List (Option.fold ~none:[] ~some:series sampler));
       ])

let to_file ?sampler reg path =
  let oc = open_out_bin path in
  output_string oc (json ?sampler reg);
  close_out oc

(* Exporters. Everything iterates in Registry/Sampler's canonical sorted
   order and formats numbers deterministically (the text formats through
   [num], JSON through the Json codec's printer), so two runs
   with equal seeds produce byte-identical files (tier-1 tests: telemetry
   [e2e export deterministic], determinism [fig3/fig6 metrics and
   results]). *)

let quantiles = [ (0.5, "0.5"); (0.9, "0.9"); (0.99, "0.99"); (0.999, "0.999") ]

(* Integral floats print as ints (counts, ns values); everything else
   with fixed precision. Never locale- or platform-dependent. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6f" v

(* --- Prometheus text format -------------------------------------------- *)

let prom_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_labels ?extra labels =
  let labels = match extra with None -> labels | Some kv -> labels @ [ kv ] in
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v)) labels)
    ^ "}"

let prometheus reg =
  let b = Buffer.create 4096 in
  let last_header = ref "" in
  List.iter
    (fun (m : Registry.metric) ->
      if m.name <> !last_header then begin
        last_header := m.name;
        if m.help <> "" then Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" m.name m.help);
        let ty =
          match m.kind with
          | Registry.Counter _ -> "counter"
          | Registry.Gauge _ -> "gauge"
          | Registry.Histogram _ -> "histogram"
        in
        Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" m.name ty)
      end;
      match m.kind with
      | Registry.Counter c ->
        Buffer.add_string b
          (Printf.sprintf "%s%s %d\n" m.name (prom_labels m.labels) (Registry.Counter.value c))
      | Registry.Gauge g ->
        Buffer.add_string b
          (Printf.sprintf "%s%s %d\n" m.name (prom_labels m.labels) (Registry.Gauge.value g))
      | Registry.Histogram h ->
        let cum = ref 0 in
        Hdr.iter_buckets h (fun ~lo:_ ~hi ~count ->
            cum := !cum + count;
            Buffer.add_string b
              (Printf.sprintf "%s_bucket%s %d\n" m.name
                 (prom_labels m.labels ~extra:("le", string_of_int hi))
                 !cum));
        Buffer.add_string b
          (Printf.sprintf "%s_bucket%s %d\n" m.name
             (prom_labels m.labels ~extra:("le", "+Inf"))
             (Hdr.count h));
        Buffer.add_string b
          (Printf.sprintf "%s_sum%s %s\n" m.name (prom_labels m.labels) (num (Hdr.sum h)));
        Buffer.add_string b
          (Printf.sprintf "%s_count%s %d\n" m.name (prom_labels m.labels) (Hdr.count h)))
    (Registry.metrics reg);
  Buffer.contents b

(* --- CSV ---------------------------------------------------------------- *)

let csv_labels labels = String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let csv reg =
  let b = Buffer.create 4096 in
  Buffer.add_string b "metric,labels,kind,field,value\n";
  let row name labels kind field value =
    Buffer.add_string b
      (Printf.sprintf "%s,%s,%s,%s,%s\n" name (csv_labels labels) kind field value)
  in
  List.iter
    (fun (m : Registry.metric) ->
      match m.kind with
      | Registry.Counter c ->
        row m.name m.labels "counter" "value" (string_of_int (Registry.Counter.value c))
      | Registry.Gauge g ->
        row m.name m.labels "gauge" "value" (string_of_int (Registry.Gauge.value g))
      | Registry.Histogram h ->
        row m.name m.labels "histogram" "count" (string_of_int (Hdr.count h));
        row m.name m.labels "histogram" "sum" (num (Hdr.sum h));
        (match Hdr.min_value h with
        | Some v -> row m.name m.labels "histogram" "min" (string_of_int v)
        | None -> ());
        (match Hdr.max_value h with
        | Some v -> row m.name m.labels "histogram" "max" (string_of_int v)
        | None -> ());
        List.iter
          (fun (q, qs) ->
            match Hdr.quantile h q with
            | Some v -> row m.name m.labels "histogram" ("p" ^ qs) (string_of_int v)
            | None -> ())
          quantiles)
    (Registry.metrics reg);
  Buffer.contents b

let series_csv sampler =
  let b = Buffer.create 4096 in
  Buffer.add_string b "metric,labels,epoch,t_ns,value\n";
  List.iter
    (fun ((m : Registry.metric), epochs) ->
      List.iter
        (fun (eid, pts) ->
          Array.iter
            (fun (ts, v) ->
              Buffer.add_string b
                (Printf.sprintf "%s,%s,%d,%d,%s\n" m.name (csv_labels m.labels) eid ts (num v)))
            pts)
        epochs)
    (Sampler.series sampler);
  Buffer.contents b

(* --- JSON --------------------------------------------------------------- *)

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

(* --- files --------------------------------------------------------------- *)

let write_string path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Format chosen by extension: .json (metrics + series), .csv (metrics;
   series land next to it in <base>_series.csv), .prom / .txt
   (Prometheus text, no series). Anything else gets JSON. *)
let to_file ?sampler reg path =
  match String.lowercase_ascii (Filename.extension path) with
  | ".csv" ->
    write_string path (csv reg);
    (match sampler with
    | Some s -> write_string (Filename.remove_extension path ^ "_series.csv") (series_csv s)
    | None -> ())
  | ".prom" | ".txt" -> write_string path (prometheus reg)
  | _ -> write_string path (json ?sampler reg)

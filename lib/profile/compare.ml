(* Perf-regression gate over mu-bench-results/1 documents.

   Compares the deterministic fields of a current bench results file
   against a baseline (normally the last BENCH_history.jsonl line) with
   per-field worse-direction tolerances. Volatile wall-clock fields
   (events_per_sec, queue ops/s) are never compared — they measure the
   box, not the code. Fields missing on either side, and checks ok in
   the baseline but absent now, are skipped and listed, not failed, so
   baselines from partial runs (--only) stay usable. *)

module J = Json

type direction = [ `Lower_is_better | `Higher_is_better ]

type rule = { r_path : string list; r_dir : direction; r_tol_pct : float }

(* Latency percentiles may drift +10% before we call it a regression;
   throughput may drop 15%; allocation counts may grow 15%. The profile
   span is a whole-run virtual-time envelope, so it gets more slack. *)
let default_rules =
  [
    { r_path = [ "replication_latency_ns"; "p50" ]; r_dir = `Lower_is_better; r_tol_pct = 10.0 };
    { r_path = [ "replication_latency_ns"; "p99" ]; r_dir = `Lower_is_better; r_tol_pct = 10.0 };
    { r_path = [ "failover_ns"; "total"; "p50" ]; r_dir = `Lower_is_better; r_tol_pct = 10.0 };
    { r_path = [ "failover_ns"; "total"; "p99" ]; r_dir = `Lower_is_better; r_tol_pct = 10.0 };
    { r_path = [ "failover_ns"; "detection"; "p50" ]; r_dir = `Lower_is_better; r_tol_pct = 10.0 };
    { r_path = [ "failover_ns"; "switch"; "p50" ]; r_dir = `Lower_is_better; r_tol_pct = 10.0 };
    { r_path = [ "serving"; "best_committed_per_us" ]; r_dir = `Higher_is_better; r_tol_pct = 15.0 };
    { r_path = [ "engine_speed"; "minor_words_per_event" ]; r_dir = `Lower_is_better; r_tol_pct = 15.0 };
    { r_path = [ "profile"; "span_ns" ]; r_dir = `Lower_is_better; r_tol_pct = 25.0 };
  ]

let lookup path json =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some json) path

(* [serving.best_committed_per_us] is derived: the surface's best cell.
   Everything else is a plain path into the document. *)
let value_at json = function
  | [ "serving"; "best_committed_per_us" ] ->
    Option.bind (lookup [ "serving"; "surface" ] json) J.to_list
    |> Option.map
         (List.fold_left
            (fun best cell ->
              match Option.bind (J.member "committed_per_us" cell) J.to_float with
              | Some v -> Float.max best v
              | None -> best)
            0.0)
  | path -> Option.bind (lookup path json) J.to_float

type field = {
  f_path : string;
  f_baseline : float;
  f_current : float;
  f_delta_pct : float; (* (current - baseline) / baseline * 100 *)
  f_tol_pct : float;
  f_regressed : bool;
}

type result = {
  fields : field list; (* compared fields, rule order *)
  skipped : string list; (* fields missing on either side, then vanished checks *)
  checks_broken : string list; (* ok in baseline, not ok in current *)
  comparable : bool; (* same schema, seed and quick flag *)
  note : string; (* why not comparable, or "" *)
}

let path_str p = String.concat "." p

let check_map json =
  match Option.bind (J.member "checks" json) J.to_list with
  | None -> []
  | Some cells ->
    List.filter_map
      (fun c ->
        match (Option.bind (J.member "name" c) J.to_str, J.member "ok" c) with
        | Some name, Some (J.Bool ok) -> Some (name, ok)
        | _ -> None)
      cells

let compatible baseline current =
  let schema j = Option.bind (J.member "schema" j) J.to_str in
  let seed j = Option.bind (J.member "seed" j) J.to_float in
  let quick j = match J.member "quick" j with Some (J.Bool b) -> Some b | _ -> None in
  if schema baseline <> Some "mu-bench-results/1" then
    Error "baseline is not a mu-bench-results/1 document"
  else if schema current <> Some "mu-bench-results/1" then
    Error "current results are not a mu-bench-results/1 document"
  else if seed baseline <> seed current then Error "seed differs — runs are not comparable"
  else if quick baseline <> quick current then
    Error "quick flag differs — runs are not comparable"
  else Ok ()

let run ?(rules = default_rules) ~baseline ~current () =
  match compatible baseline current with
  | Error note ->
    { fields = []; skipped = []; checks_broken = []; comparable = false; note }
  | Ok () ->
    let fields, skipped =
      List.fold_left
        (fun (fields, skipped) r ->
          match (value_at baseline r.r_path, value_at current r.r_path) with
          | Some b, Some c when b > 0.0 ->
            let delta = (c -. b) /. b *. 100.0 in
            let regressed =
              match r.r_dir with
              | `Lower_is_better -> delta > r.r_tol_pct
              | `Higher_is_better -> delta < -.r.r_tol_pct
            in
            ( {
                f_path = path_str r.r_path;
                f_baseline = b;
                f_current = c;
                f_delta_pct = delta;
                f_tol_pct = r.r_tol_pct;
                f_regressed = regressed;
              }
              :: fields,
              skipped )
          | _ -> (fields, path_str r.r_path :: skipped))
        ([], []) rules
    in
    let base_checks = check_map baseline in
    let cur_checks = check_map current in
    let checks_broken, checks_gone =
      List.fold_left
        (fun (broken, gone) (name, ok) ->
          if not ok then (broken, gone)
          else
            match List.assoc_opt name cur_checks with
            | Some false -> (name :: broken, gone)
            | None -> (broken, ("check " ^ name) :: gone)
            | Some true -> (broken, gone))
        ([], []) base_checks
    in
    {
      fields = List.rev fields;
      skipped = List.rev_append skipped (List.rev checks_gone);
      checks_broken = List.rev checks_broken;
      comparable = true;
      note = "";
    }

let regressed r =
  r.comparable && (r.checks_broken <> [] || List.exists (fun f -> f.f_regressed) r.fields)

let pp_field ppf f =
  Fmt.pf ppf "%-40s %14.2f -> %14.2f  %+7.2f%% (tol %.0f%%) %s" f.f_path f.f_baseline
    f.f_current f.f_delta_pct f.f_tol_pct
    (if f.f_regressed then "REGRESSED" else "ok")

let pp ppf r =
  if not r.comparable then Fmt.pf ppf "comparison skipped: %s@." r.note
  else begin
    List.iter (fun f -> Fmt.pf ppf "%a@." pp_field f) r.fields;
    List.iter (fun p -> Fmt.pf ppf "%-40s (missing on one side, skipped)@." p) r.skipped;
    List.iter (fun c -> Fmt.pf ppf "check %s: ok in baseline, FAILING now@." c)
      r.checks_broken;
    Fmt.pf ppf "verdict: %s@." (if regressed r then "REGRESSION" else "no regression")
  end

let to_string r = Fmt.str "%a" pp r

(* --- file helpers --------------------------------------------------------- *)

let read_file path =
  try
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Ok s
  with Sys_error msg -> Error msg

let load_results path =
  match read_file path with
  | Error msg -> Error msg
  | Ok s -> (
    match J.of_string (String.trim s) with
    | Ok j -> Ok j
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let load_last_history path =
  match read_file path with
  | Error msg -> Error msg
  | Ok s -> (
    let lines =
      String.split_on_char '\n' s
      |> List.filter (fun l -> String.trim l <> "")
    in
    match List.rev lines with
    | [] -> Error (Printf.sprintf "%s: history is empty" path)
    | last :: _ -> (
      match J.of_string (String.trim last) with
      | Ok j -> Ok j
      | Error msg -> Error (Printf.sprintf "%s (last line): %s" path msg)))

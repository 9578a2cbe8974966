type t = { b_triple : Shrink.triple; b_verdict : Conformance.verdict }

let schema = "mu-verify-repro/1"

(* --- encode --------------------------------------------------------------- *)

let to_string b =
  let t = b.b_triple in
  Faults.Json.to_string
    (Faults.Json.Obj
       [
         ("schema", Faults.Json.Str schema);
         ("seed", Faults.Json.Str (Int64.to_string t.Shrink.t_seed));
         ("n", Faults.Json.num_of_int t.Shrink.t_n);
         ("inject", Faults.Json.num_of_int t.Shrink.t_inject);
         ("scenario", Faults.Scenario.to_json t.Shrink.t_scenario);
         ("history", Workload.Chaos.script_to_json t.Shrink.t_history);
         ( "verdict",
           Faults.Json.Str (Conformance.verdict_to_string b.b_verdict) );
       ])

(* --- decode --------------------------------------------------------------- *)

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Faults.Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "repro: missing or bad %S" name)

let of_string s =
  let* j = Faults.Json.of_string s in
  let* () =
    match Option.bind (Faults.Json.member "schema" j) Faults.Json.to_str with
    | Some v when v = schema -> Ok ()
    | Some v -> Error (Printf.sprintf "repro: unknown schema %S" v)
    | None -> Error "repro: missing \"schema\""
  in
  let* seed =
    let* s = field "seed" Faults.Json.to_str j in
    match Int64.of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "repro: bad seed %S" s)
  in
  let* n = field "n" Faults.Json.to_int j in
  let* inject = field "inject" Faults.Json.to_int j in
  let* scenario =
    match Faults.Json.member "scenario" j with
    | Some sj -> Faults.Scenario.of_json sj
    | None -> Error "repro: missing \"scenario\""
  in
  let* () = Faults.Scenario.validate ~n scenario in
  let* history =
    match Faults.Json.member "history" j with
    | Some hj -> Workload.Chaos.script_of_json hj
    | None -> Error "repro: missing or bad \"history\""
  in
  let* b_verdict =
    let* v = field "verdict" Faults.Json.to_str j in
    match Conformance.verdict_of_string v with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "repro: unknown verdict %S" v)
  in
  Ok
    {
      b_triple =
        {
          Shrink.t_seed = seed;
          t_n = n;
          t_inject = inject;
          t_scenario = scenario;
          t_history = history;
        };
      b_verdict;
    }

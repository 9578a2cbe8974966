type t = { b_spec : Workload.Chaos.spec; b_verdict : Workload.Chaos.verdict }

let schema = "mu-verify-repro/2"

let to_string b =
  Json.to_string
    (Json.Obj
       ((("schema", Json.Str schema) :: Workload.Chaos.spec_fields b.b_spec)
       @ [ ("verdict", Json.Str (Workload.Chaos.verdict_to_string b.b_verdict)) ]))

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "repro: missing or bad %S" name)

(* A /1 bundle carried (seed, n, inject, scenario, history): the same
   facts as a /2 spec whose other fields are the chaos defaults, with
   the script under another name. *)
let of_string s =
  let* j = Json.of_string s in
  let* j =
    match (Json.member "schema" j, j) with
    | Some (Json.Str v), _ when v = schema -> Ok j
    | Some (Json.Str "mu-verify-repro/1"), Json.Obj fs ->
      let rename (k, v) = ((if k = "history" then "script" else k), v) in
      Ok (Json.Obj (List.map rename fs))
    | Some (Json.Str v), _ -> Error (Printf.sprintf "repro: unknown schema %S" v)
    | _ -> Error "repro: missing \"schema\""
  in
  let* b_spec = Workload.Chaos.spec_of_json j in
  (* [Chaos.spec_of_json] defaults a missing [inject]; a bundle states it. *)
  let* _ = field "inject" Json.to_int j in
  let* v = field "verdict" Json.to_str j in
  match Workload.Chaos.verdict_of_string v with
  | Some b_verdict -> Ok { b_spec; b_verdict }
  | None -> Error (Printf.sprintf "repro: unknown verdict %S" v)

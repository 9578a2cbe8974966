type traffic = Scripted of { clients : int; ops_per_client : int } | Spec_clients

type report = {
  cases : int;
  failed : int;
  coverage : Faults.Scenario.coverage;
  op_stats : History.stats option;
  first_witness : Workload.Chaos.witness option;
  minimized : (Repro.t * Shrink.shrunk) option;
}

let sweep ?(cases = 25) ?(ns = [ 3; 5 ]) ?(inject = 0)
    ?(traffic = Scripted { clients = 3; ops_per_client = 8 }) ?budget ?(log = fun _ -> ())
    ~seed () =
  (* Each case's PRNG feeds its scenario, then its history: the whole
     case replays from its seed alone. *)
  let runs =
    List.mapi
      (fun i ((spec : Workload.Chaos.spec), crng) ->
        let history, clients =
          match traffic with
          | Scripted { clients; ops_per_client } ->
            let h = History.generate ~clients ~ops_per_client crng in
            (h, Workload.Chaos.Script h)
          | Spec_clients -> ([], spec.clients)
        in
        let spec = { spec with clients; inject } in
        let r = Shrink.run spec in
        log
          (Fmt.str "case %3d  seed=%-20Ld n=%d  %-18s %s" i spec.seed spec.config.Mu.Config.n
             spec.scenario.Faults.Scenario.name
             (Workload.Chaos.verdict_to_string r.Shrink.verdict));
        (spec, history, r))
      (Workload.Chaos.cases ~count:cases ~ns ~seed)
  in
  let failures = List.filter (fun (_, _, r) -> r.Shrink.verdict <> Workload.Chaos.Pass) runs in
  let minimized, first_witness =
    match failures with
    | [] -> (None, None)
    | (spec, _, r) :: _ ->
      let shrunk = Shrink.shrink ?budget ~log spec r in
      ( Some
          ( {
              Repro.b_spec = shrunk.Shrink.minimized;
              b_verdict = shrunk.Shrink.final.Shrink.verdict;
            },
            shrunk ),
        r.Shrink.outcome.witness )
  in
  {
    cases;
    failed = List.length failures;
    coverage =
      Faults.Scenario.coverage (List.map (fun ((s : Workload.Chaos.spec), _, _) -> s.scenario) runs);
    op_stats =
      (match traffic with
      | Scripted _ -> Some (History.stats (List.concat_map (fun (_, h, _) -> h) runs))
      | Spec_clients -> None);
    first_witness;
    minimized;
  }

let replay (b : Repro.t) =
  let r = Shrink.run b.b_spec in
  (r, Repro.to_string { b with b_verdict = r.Shrink.verdict })

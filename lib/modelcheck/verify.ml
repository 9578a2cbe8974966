type report = {
  cases : int;
  failed : int;
  verdicts : (int64 * int * Conformance.verdict) list;
  coverage : Faults.Scenario.coverage;
  op_stats : History.stats;
  first_witness : Workload.Chaos.witness option;
  minimized : (Repro.t * Shrink.shrunk) option;
}

let sweep ?(cases = 25) ?(ns = [ 3; 5 ]) ?(inject = 0) ?(clients = 3)
    ?(ops_per_client = 8) ?budget ?(log = fun _ -> ()) ~seed () =
  (* Each case's PRNG feeds its scenario, then its history: the whole
     case replays from its seed alone. *)
  let runs =
    List.mapi
      (fun i ((spec : Workload.Chaos.spec), crng) ->
        let history = History.generate ~clients ~ops_per_client crng in
        let spec = { spec with clients = Script history; inject } in
        let r = Shrink.run spec in
        log
          (Fmt.str "case %3d  seed=%-20Ld n=%d  %-18s %s" i spec.seed spec.config.Mu.Config.n
             spec.scenario.Faults.Scenario.name
             (Conformance.verdict_to_string r.Shrink.verdict));
        (spec, history, r))
      (Workload.Chaos.cases ~count:cases ~ns ~seed)
  in
  let verdicts =
    List.map
      (fun ((s : Workload.Chaos.spec), _, r) -> (s.seed, s.config.Mu.Config.n, r.Shrink.verdict))
      runs
  in
  let minimized, first_witness =
    match List.find_opt (fun (_, _, r) -> r.Shrink.verdict <> Conformance.Pass) runs with
    | None -> (None, None)
    | Some (spec, _, r) ->
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
    failed = List.length (List.filter (fun (_, _, v) -> v <> Conformance.Pass) verdicts);
    verdicts;
    coverage =
      Faults.Scenario.coverage (List.map (fun ((s : Workload.Chaos.spec), _, _) -> s.scenario) runs);
    op_stats = History.stats (List.concat_map (fun (_, h, _) -> h) runs);
    first_witness;
    minimized;
  }

let replay (b : Repro.t) =
  let r = Shrink.run b.b_spec in
  (r, Repro.to_string { b with b_verdict = r.Shrink.verdict })

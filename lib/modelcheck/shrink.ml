type triple = {
  t_seed : int64;
  t_n : int;
  t_inject : int;
  t_scenario : Faults.Scenario.t;
  t_history : Workload.Chaos.scripted_op list list;
}

type result = {
  verdict : Conformance.verdict;
  witness : Conformance.witness option;
  outcome : Workload.Chaos.outcome;
}

let ops t = List.fold_left (fun acc c -> acc + List.length c) 0 t.t_history

let run t =
  let saved = !Apps.Kv_store.test_only_lose_put_every in
  Apps.Kv_store.test_only_lose_put_every := t.t_inject;
  Fun.protect
    ~finally:(fun () -> Apps.Kv_store.test_only_lose_put_every := saved)
    (fun () ->
      let spec = Workload.Chaos.spec ~seed:t.t_seed ~n:t.t_n t.t_scenario in
      let outcome = Workload.Chaos.run { spec with clients = Script t.t_history } in
      let verdict, witness = Conformance.judge outcome in
      { verdict; witness; outcome })

(* --- candidate enumeration ------------------------------------------------ *)

(* Drop empty client lists; the script shape (list per client) is
   otherwise preserved so proc numbering of survivors shifts minimally
   and deterministically. *)
let prune history = List.filter (fun c -> c <> []) history

(* Every candidate one structural move away, best (biggest cut) first.
   The enumeration order is a pure function of the triple — the heart of
   shrink determinism. *)
let candidates t =
  let cs = ref [] in
  let add c = cs := c :: !cs in
  let nclients = List.length t.t_history in
  (* 1. Drop one whole client. *)
  if nclients > 1 then
    for i = nclients - 1 downto 0 do
      add { t with t_history = prune (List.filteri (fun j _ -> j <> i) t.t_history) }
    done;
  (* 2. Truncate one client to its first half. *)
  List.iteri
    (fun i c ->
      let len = List.length c in
      if len > 1 then
        add
          {
            t with
            t_history =
              prune
                (List.mapi
                   (fun j c' ->
                     if j = i then List.filteri (fun k _ -> k < len / 2) c' else c')
                   t.t_history);
          })
    t.t_history;
  (* 3. Delete one op, scanning each client back to front. *)
  List.iteri
    (fun i c ->
      let len = List.length c in
      for k = len - 1 downto 0 do
        if len > 1 || nclients > 1 then
          add
            {
              t with
              t_history =
                prune
                  (List.mapi
                     (fun j c' ->
                       if j = i then List.filteri (fun k' _ -> k' <> k) c' else c')
                     t.t_history);
            }
      done)
    t.t_history;
  (* 4. Drop one fault event, last scheduled first; dropping a stop/kill
     can orphan a restart, so invalid scenarios are skipped here rather
     than spent from the rerun budget. *)
  let nevents = List.length t.t_scenario.Faults.Scenario.events in
  for i = nevents - 1 downto 0 do
    match Faults.Scenario.drop_event t.t_scenario i with
    | Some sc when Result.is_ok (Faults.Scenario.validate ~n:t.t_n sc) ->
      add { t with t_scenario = sc }
    | _ -> ()
  done;
  (* 5. Shrink the cluster. *)
  if t.t_n > 3 && Result.is_ok (Faults.Scenario.validate ~n:3 t.t_scenario) then
    add { t with t_n = 3 };
  List.rev !cs

type shrunk = {
  minimized : triple;
  final : result;
  reruns : int;
  exhausted : bool;
}

let describe t =
  Fmt.str "%d clients / %d ops, %d fault events, n=%d"
    (List.length t.t_history) (ops t)
    (List.length t.t_scenario.Faults.Scenario.events)
    t.t_n

let shrink ?(budget = 500) ?(log = fun _ -> ()) t r =
  if not (Conformance.failing r.verdict) then
    invalid_arg "Shrink.shrink: triple does not fail";
  let current = ref t in
  let current_result = ref r in
  let reruns = ref 0 in
  let exhausted = ref false in
  let progress = ref true in
  while !progress && not !exhausted do
    progress := false;
    let rec try_cands = function
      | [] -> ()
      | cand :: rest ->
        if !reruns >= budget then exhausted := true
        else begin
          incr reruns;
          let cr = run cand in
          if Conformance.failing cr.verdict then begin
            (* Greedy: restart the scan from the smaller triple. *)
            current := cand;
            current_result := cr;
            progress := true;
            log
              (Fmt.str "shrink: kept %s (%s) after %d reruns" (describe cand)
                 (Conformance.verdict_to_string cr.verdict) !reruns)
          end
          else try_cands rest
        end
    in
    try_cands (candidates !current)
  done;
  if !exhausted then
    log
      (Fmt.str
         "shrink: budget of %d reruns exhausted at %s — result may not be minimal"
         budget (describe !current));
  {
    minimized = !current;
    final = !current_result;
    reruns = !reruns;
    exhausted = !exhausted;
  }

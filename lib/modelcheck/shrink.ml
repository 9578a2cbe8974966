type result = { verdict : Workload.Chaos.verdict; outcome : Workload.Chaos.outcome }

let script (s : Workload.Chaos.spec) =
  match s.clients with Script c -> c | Random _ -> []

let ops (s : Workload.Chaos.spec) =
  match s.clients with
  | Script c -> List.fold_left (fun acc c -> acc + List.length c) 0 c
  | Random r -> s.shards * r.clients * r.ops

let run spec =
  let outcome = Workload.Chaos.run spec in
  { verdict = Workload.Chaos.verdict outcome; outcome }

(* --- candidate enumeration ------------------------------------------------ *)

(* Drop empty client lists; the script shape (list per client) is
   otherwise preserved so proc numbering of survivors shifts minimally
   and deterministically. *)
let with_script (s : Workload.Chaos.spec) history =
  { s with clients = Script (List.filter (fun c -> c <> []) history) }

(* Every candidate one structural move away, best (biggest cut) first.
   The enumeration order is a pure function of the spec — the heart of
   shrink determinism. *)
let candidates (s : Workload.Chaos.spec) =
  let cs = ref [] in
  let add c = cs := c :: !cs in
  let history = script s in
  let nclients = List.length history in
  (* 1. Drop one whole client. *)
  if nclients > 1 then
    for i = nclients - 1 downto 0 do
      add (with_script s (List.filteri (fun j _ -> j <> i) history))
    done;
  (* 2. Truncate one client to its first half. *)
  List.iteri
    (fun i c ->
      let len = List.length c in
      if len > 1 then
        add
          (with_script s
             (List.mapi
                (fun j c' -> if j = i then List.filteri (fun k _ -> k < len / 2) c' else c')
                history)))
    history;
  (* 3. Delete one op, scanning each client back to front. *)
  List.iteri
    (fun i c ->
      let len = List.length c in
      for k = len - 1 downto 0 do
        if len > 1 || nclients > 1 then
          add
            (with_script s
               (List.mapi
                  (fun j c' -> if j = i then List.filteri (fun k' _ -> k' <> k) c' else c')
                  history))
      done)
    history;
  (* 4. Drop one fault event, last scheduled first; dropping a stop/kill
     can orphan a restart, so invalid scenarios are skipped here rather
     than spent from the rerun budget. *)
  let n = s.config.Mu.Config.n in
  let nevents = List.length s.scenario.Faults.Scenario.events in
  for i = nevents - 1 downto 0 do
    match Faults.Scenario.drop_event s.scenario i with
    | Some sc when Result.is_ok (Faults.Scenario.validate ~n sc) -> add { s with scenario = sc }
    | _ -> ()
  done;
  (* 5. Shrink the cluster. *)
  if n > 3 && Result.is_ok (Faults.Scenario.validate ~n:3 s.scenario) then
    add { s with config = { s.config with n = 3 } };
  List.rev !cs

type shrunk = {
  minimized : Workload.Chaos.spec;
  final : result;
  reruns : int;
  exhausted : bool;
}

let describe (s : Workload.Chaos.spec) =
  Fmt.str "%d clients / %d ops, %d fault events, n=%d"
    (match s.clients with Script c -> List.length c | Random r -> s.shards * r.clients)
    (ops s)
    (List.length s.scenario.Faults.Scenario.events)
    s.config.Mu.Config.n

let shrink ?(budget = 500) ?(log = fun _ -> ()) spec r =
  if r.verdict = Workload.Chaos.Pass then
    invalid_arg "Shrink.shrink: spec does not fail";
  let current = ref spec in
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
          if cr.verdict <> Workload.Chaos.Pass then begin
            (* Greedy: restart the scan from the smaller spec. *)
            current := cand;
            current_result := cr;
            progress := true;
            log
              (Fmt.str "shrink: kept %s (%s) after %d reruns" (describe cand)
                 (Workload.Chaos.verdict_to_string cr.verdict) !reruns)
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

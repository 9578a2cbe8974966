(* Sharded chaos: a Mu.Sharded cluster under an injected fault scenario,
   with per-shard KV clients collecting real-time histories. Faults land
   on shard 0's replicas (scenario host ids are that shard's replica
   ids); the checks are per-shard linearizability, cross-shard isolation
   (a shard's reads only ever observe values written to that shard), and
   the Appendix A invariants over every shard's replicas. *)

type outcome = {
  seed : int64;
  n : int;
  shards : int;
  scenario : Faults.Scenario.t;
  completed : bool;
  ops : int;
  per_shard_linearizable : bool;
  isolated : bool;
  violations : Mu.Invariants.violation list;
  rejoins : int;
  shed : int;
}

let passed o =
  o.completed && o.per_shard_linearizable && o.isolated && o.violations = []

let pp_outcome ppf o =
  Fmt.pf ppf "%-18s seed=%-8Ld n=%d shards=%d  %4d ops%s  %s"
    o.scenario.Faults.Scenario.name o.seed o.n o.shards o.ops
    (if o.rejoins > 0 then Fmt.str ", %d rejoin(s)" o.rejoins else "")
    (if passed o then "ok"
     else
       String.concat ", "
         ((if o.completed then [] else [ "stalled" ])
         @ (if o.per_shard_linearizable then [] else [ "NOT LINEARIZABLE" ])
         @ (if o.isolated then [] else [ "CROSS-SHARD LEAK" ])
         @
         match o.violations with
         | [] -> []
         | vs -> [ Printf.sprintf "%d invariant violation(s)" (List.length vs) ]))

(* Keys that provably route to [shard]: probe candidate strings through
   the same hash the cluster routes with. *)
let keys_for ~shards ~shard ~count =
  let acc = ref [] and i = ref 0 in
  while List.length !acc < count do
    let k = Printf.sprintf "s%d-k%d" shard !i in
    if Mu.Sharded.key_hash k mod shards = shard then acc := k :: !acc;
    incr i
  done;
  Array.of_list (List.rev !acc)

let client_fiber e s ~shard ~proc ~ops ~think ~keys ~history ~on_done =
  let rng = Sim.Rng.split (Sim.Engine.rng e) in
  for i = 1 to ops do
    if think > 0 && i > 1 then Sim.Engine.sleep e think;
    let key = keys.(Sim.Rng.int rng (Array.length keys)) in
    let cmd =
      if Sim.Rng.bool rng then
        (* Shard-stamped values make cross-shard leaks observable. *)
        Apps.Kv_store.Put { key; value = Printf.sprintf "s%d:c%d-%d" shard proc i }
      else Apps.Kv_store.Get { key }
    in
    let payload = Apps.Kv_store.encode_command ~client:proc ~req_id:i cmd in
    let invoked = Sim.Engine.now e in
    let rec attempt () =
      let reply = Mu.Sharded.submit s ~key payload in
      if Mu.Smr.is_retryable reply then begin
        Sim.Engine.sleep e 500_000;
        attempt ()
      end
      else reply
    in
    let reply = attempt () in
    let responded = Sim.Engine.now e in
    let kind =
      match (cmd, Apps.Kv_store.decode_reply reply) with
      | Apps.Kv_store.Put { value; _ }, _ -> Workload.Linearizability.Write value
      | Apps.Kv_store.Get _, Some (Apps.Kv_store.Value v) ->
        Workload.Linearizability.Read (Some v)
      | (Apps.Kv_store.Get _ | Apps.Kv_store.Delete _), _ ->
        Workload.Linearizability.Read None
    in
    history.(shard) <-
      { Workload.Linearizability.proc; invoked; responded; key; kind }
      :: history.(shard)
  done;
  on_done ()

let default_config =
  {
    Mu.Config.default with
    Mu.Config.log_slots = 4096;
    recycle_interval = 1_000_000;
    durable_state = true;
  }

let run ?(clients_per_shard = 2) ?(ops_per_client = 20) ?(think = 100_000)
    ?(horizon = 2_000_000_000) ?(config = default_config) ~seed ~n ~shards scenario =
  if shards < 1 then invalid_arg "Serving.Chaos.run: shards must be >= 1";
  let e = Sim.Engine.create ~seed () in
  let cfg = { config with Mu.Config.n } in
  let s =
    Mu.Sharded.create e Sim.Calibration.default cfg ~shards
      ~make_app:(fun ~shard:_ ~replica:_ -> Apps.Kv_store.smr_app ())
  in
  Mu.Sharded.start s;
  (* Scenario host ids are shard 0's replica ids: the faulted shard must
     keep its per-shard guarantees while the others run undisturbed. *)
  let target () = Mu.Sharded.shard s 0 in
  Faults.Injector.install e
    ~hosts:(fun pid ->
      let smr = target () in
      if pid >= 0 && pid < Array.length (Mu.Smr.replicas smr) then
        Some (Mu.Smr.replica smr pid).Mu.Replica.host
      else None)
    ~restart:(fun pid -> Mu.Smr.restart_replica (target ()) ~id:pid)
    scenario;
  let history = Array.make shards [] in
  let remaining = ref (clients_per_shard * shards) in
  let completed = ref false in
  for shard = 0 to shards - 1 do
    let keys = keys_for ~shards ~shard ~count:3 in
    for c = 1 to clients_per_shard do
      let proc = (shard * 100) + c in
      Sim.Engine.spawn e
        ~name:(Printf.sprintf "serving-chaos-s%d-c%d" shard c)
        (fun () ->
          Mu.Sharded.wait_live s;
          client_fiber e s ~shard ~proc ~ops:ops_per_client ~think ~keys ~history
            ~on_done:(fun () ->
              decr remaining;
              if !remaining = 0 then begin
                (* Quiesce past the last scheduled restart so a late
                   rejoin pipeline can finish before the state checks. *)
                let restart_horizon =
                  List.fold_left
                    (fun a ev ->
                      match ev.Faults.Scenario.action with
                      | Faults.Scenario.Restart _ -> max a ev.Faults.Scenario.at
                      | _ -> a)
                    0 scenario.Faults.Scenario.events
                in
                if Sim.Engine.now e < restart_horizon + 1_000 then
                  Sim.Engine.sleep e (restart_horizon + 1_000 - Sim.Engine.now e);
                let budget = ref 100 in
                while Mu.Smr.restarts_in_flight (target ()) > 0 && !budget > 0 do
                  decr budget;
                  Sim.Engine.sleep e 1_000_000
                done;
                Sim.Engine.sleep e 5_000_000;
                completed := true;
                Mu.Sharded.stop s;
                Sim.Engine.halt e
              end))
    done
  done;
  Sim.Engine.run ~until:horizon e;
  let linearizable = ref true and isolated = ref true and ops = ref 0 in
  Array.iteri
    (fun shard h ->
      ops := !ops + List.length h;
      if not (Workload.Linearizability.check h) then linearizable := false;
      let stamp = Printf.sprintf "s%d:" shard in
      List.iter
        (fun (op : Workload.Linearizability.op) ->
          match op.Workload.Linearizability.kind with
          | Workload.Linearizability.Read (Some v) ->
            if not (String.length v >= String.length stamp
                    && String.sub v 0 (String.length stamp) = stamp)
            then isolated := false
          | Workload.Linearizability.Read None
          | Workload.Linearizability.Write _ | Workload.Linearizability.Erase -> ())
        h)
    history;
  let violations = ref [] in
  let rejoins = ref 0 in
  let shed = ref 0 in
  for i = 0 to shards - 1 do
    let smr = Mu.Sharded.shard s i in
    violations := !violations @ Mu.Invariants.check_all (Mu.Smr.replicas smr);
    rejoins := !rejoins + List.length (Mu.Smr.rejoins smr);
    shed := !shed + Mu.Smr.shed_requests smr
  done;
  {
    seed;
    n;
    shards;
    scenario;
    completed = !completed;
    ops = !ops;
    per_shard_linearizable = !linearizable;
    isolated = !isolated;
    violations = !violations;
    rejoins = !rejoins;
    shed = !shed;
  }

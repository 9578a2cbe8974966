(* Chaos harness: run a Mu cluster under an injected fault scenario while
   KV clients collect a real-time history, then check the safety nets the
   paper's claims rest on — the Appendix A invariants over replica state
   and linearizability of the recorded replies under KV semantics (§2.2).
   Every run is a Mu.Sharded cluster (§8); a single group is one shard. *)

type scripted_op = { s_think : int; s_req : int; s_cmd : Apps.Kv_store.command }

type recorded = {
  r_proc : int;
  r_req : int;
  r_invoked : int;
  r_responded : int;
  r_cmd : Apps.Kv_store.command;
  r_reply : Apps.Kv_store.reply option;
}

let key_of = function Apps.Kv_store.Get { key } | Delete { key } | Put { key; _ } -> key

(* --- the KV reply model ----------------------------------------------------- *)

(* One key's value as the linearization state: a recorded op fits when
   its reply is exactly what the KV application returns from that value.
   An unanswered write or delete has no reply to contradict — it may
   always be linearized (at worst dead last, where it affects nothing
   retained). *)
module Kv_check = Linearizability.Make (struct
  type state = string option
  type op = recorded

  let init = None
  let key r = key_of r.r_cmd
  let invoked r = r.r_invoked
  let responded r = r.r_responded

  let fits state r =
    match (r.r_cmd, r.r_reply) with
    | Apps.Kv_store.Put _, (Some Apps.Kv_store.Stored | None) -> true
    | Get _, Some (Value v) -> state = Some v
    | Get _, Some Not_found | Delete _, Some Not_found -> state = None
    | Delete _, Some Deleted -> state <> None
    | Delete _, None -> true
    | _ -> false

  let next state r =
    match r.r_cmd with Apps.Kv_store.Put { value; _ } -> Some value | Delete _ -> None | Get _ -> state

  (* Reads only constrain; a write is kept while any retained read
     observed its value or any retained delete answered [Deleted] (its
     success may rest on this write); a delete is kept while any retained
     reply asserts absence ([Not_found] from a read or another delete). *)
  let removable retained o =
    let depends pred = List.exists (fun r -> r != o && pred r.r_cmd r.r_reply) retained in
    match o.r_cmd with
    | Apps.Kv_store.Get _ -> true
    | Put { value; _ } ->
      not
        (depends (fun cmd reply ->
             match (cmd, reply) with
             | Apps.Kv_store.Get _, Some (Apps.Kv_store.Value v) -> v = value
             | Delete _, Some Deleted -> true
             | _ -> false))
    | Delete _ ->
      not
        (depends (fun cmd reply ->
             match (cmd, reply) with
             | (Apps.Kv_store.Get _ | Delete _), Some Apps.Kv_store.Not_found -> true
             | _ -> false))

  let order a b =
    compare (a.r_invoked, a.r_responded, a.r_proc, a.r_req)
      (b.r_invoked, b.r_responded, b.r_proc, b.r_req)
end)

type witness = Kv_check.witness = {
  wkey : string;
  wops : recorded list;
  wpending : recorded list;
}

(* A read that never answered (or answered garbage) observed nothing. *)
let checkable r = match (r.r_cmd, r.r_reply) with Apps.Kv_store.Get _, None -> false | _ -> true

let check records = Kv_check.check (List.filter checkable records)
let witness records = Kv_check.witness (List.filter checkable records)

let pp_recorded ppf r =
  if r.r_responded = max_int then
    Fmt.pf ppf "proc %d req %d  [%d, open)  %a -> PENDING" r.r_proc r.r_req r.r_invoked
      Apps.Kv_store.pp_command r.r_cmd
  else
    Fmt.pf ppf "proc %d req %d  [%d, %d]  %a -> %a" r.r_proc r.r_req r.r_invoked r.r_responded
      Apps.Kv_store.pp_command r.r_cmd
      (Fmt.option ~none:(Fmt.any "(no reply)") Apps.Kv_store.pp_reply)
      r.r_reply

let pp_witness ppf w =
  Fmt.pf ppf "key %S: %d-op non-conformant sub-history" w.wkey (List.length w.wops);
  (* Forced newlines, not box breaks: the witness is embedded in outcome
     lines printed outside any formatting box. *)
  List.iter (fun r -> Fmt.pf ppf "@\n    %a" pp_recorded r) w.wops

type clients =
  | Random of { clients : int; ops : int; think : int }
  | Script of scripted_op list list

type spec = {
  seed : int64;
  config : Mu.Config.t;
  shards : int;
  horizon : int;
  scenario : Faults.Scenario.t;
  clients : clients;
  inject : int;
}

let spec ~seed ~n scenario =
  {
    seed;
    config =
      {
        Mu.Config.default with
        Mu.Config.n;
        log_slots = 4096;
        recycle_interval = 1_000_000;
        durable_state = true;
      };
    shards = 1;
    horizon = 2_000_000_000;
    scenario;
    clients = Random { clients = 4; ops = 25; think = 0 };
    inject = 0;
  }

type outcome = {
  spec : spec;
  completed : bool;
  ops : int;
  committed : int;
  witness : witness option;
  record : recorded list;
  violations : Mu.Invariants.violation list;
  crash : string option;
  rejoins : Mu.Smr.rejoin list;
  shed : int;
  degraded_ns : int;
}

type verdict = Pass | Not_conformant | Invariant_violation | Crash | Stall

let verdict_strings =
  [
    (Pass, "pass");
    (Not_conformant, "not-conformant");
    (Invariant_violation, "invariant-violation");
    (Crash, "crash");
    (Stall, "stall");
  ]

let verdict_to_string v = List.assoc v verdict_strings

let verdict_of_string s =
  List.find_map (fun (v, s') -> if s = s' then Some v else None) verdict_strings

let verdict o =
  if o.witness <> None then Not_conformant
  else if o.violations <> [] then Invariant_violation
  else if o.crash <> None then Crash
  else if not o.completed then Stall
  else Pass

let passed o = verdict o = Pass

let pp_outcome ppf o =
  let s = o.spec in
  Fmt.pf ppf "%-18s seed=%-8Ld n=%d%s  %4d ops, %4d committed%s  %s"
    s.scenario.Faults.Scenario.name s.seed s.config.Mu.Config.n
    (if s.shards = 1 then "" else Printf.sprintf " shards=%d" s.shards)
    o.ops o.committed
    (match o.rejoins with
    | [] -> ""
    | rs ->
      Fmt.str ", %d rejoin%s (%s)" (List.length rs)
        (if List.length rs = 1 then "" else "s")
        (String.concat ", "
           (List.map
              (fun r ->
                Printf.sprintf "host %d: %d entries in %dus" r.Mu.Smr.pid
                  r.Mu.Smr.entries_pulled
                  ((r.Mu.Smr.parity_at - r.Mu.Smr.restarted_at) / 1_000))
              rs)))
    (if passed o then "ok"
     else
       String.concat ", "
         ((match o.crash with
          | Some m -> [ "CRASH " ^ m ]
          | None -> if o.completed then [] else [ "stalled" ])
         @ (if o.witness = None then [] else [ "NOT LINEARIZABLE" ])
         @
         match o.violations with
         | [] -> []
         | vs -> [ Printf.sprintf "%d invariant violation(s)" (List.length vs) ]));
  (* Passing outcomes keep their historical one-line format; the witness
     only ever extends a failing line. *)
  match o.witness with
  | None -> ()
  | Some w -> Fmt.pf ppf "@\n  %a" pp_witness w

(* The first [count] keys of the fixed candidate list "a" .. "z", "k26",
   "k27", ... that route to [shard]; at one shard, "a"; "b"; "c". *)
let keys_for ~shards ~shard ~count =
  let rec go i acc =
    if List.length acc = count then Array.of_list (List.rev acc)
    else
      let k =
        if i < 26 then String.make 1 (Char.chr (97 + i)) else Printf.sprintf "k%d" i
      in
      go (i + 1) (if Mu.Sharded.key_hash k mod shards = shard then k :: acc else acc)
  in
  go 0 []

let op_name = function Apps.Kv_store.Get _ -> "get" | Put _ -> "put" | Delete _ -> "delete"

(* A random client's closed-loop Puts/Gets on a small key space, drawn
   from its private stream. Values are unique per (proc, op), so every
   read names the one put it observed. *)
let random_script rng ~proc ~ops ~think ~keys =
  List.init ops (fun i ->
      let key = keys.(Sim.Rng.int rng (Array.length keys)) in
      let s_cmd =
        if Sim.Rng.bool rng then
          Apps.Kv_store.Put { key; value = Printf.sprintf "c%d-%d" proc (i + 1) }
        else Apps.Kv_store.Get { key }
      in
      { s_think = (if i = 0 then 0 else think); s_req = i + 1; s_cmd })

(* One client fiber: submits its ops in order, each routed by key, and
   records every decoded reply with its invocation/response times.
   Request ids make retries idempotent (the KV app deduplicates), so the
   at-least-once delivery of SMR under leader change stays linearizable. *)
let client_fiber e s ~proc ~script ~records ~pending ~on_done =
  Mu.Sharded.wait_live s;
  List.iter
    (fun { s_think; s_req; s_cmd } ->
      if s_think > 0 then Sim.Engine.sleep e s_think;
      let key = key_of s_cmd in
      let payload = Apps.Kv_store.encode_command ~client:proc ~req_id:s_req s_cmd in
      let r =
        { r_proc = proc; r_req = s_req; r_invoked = Sim.Engine.now e; r_responded = max_int;
          r_cmd = s_cmd; r_reply = None }
      in
      Hashtbl.replace pending proc r;
      (* The client_op span labels the detached "request" span that
         [Smr.submit] opens underneath it with (proc, req, key, op), so
         [mu_demo chaos --explain] can name the requests caught in a fail-over.
         A shed reply (degraded leader past its queue bound) is retried
         after a back-off under the same invocation time: the operation is
         still one linearizability event, it just took longer to admit. *)
      let rec attempt () =
        let reply = Mu.Sharded.submit s ~key payload in
        if Mu.Smr.is_retryable reply then begin
          Sim.Engine.sleep e 500_000;
          attempt ()
        end
        else reply
      in
      let reply =
        Sim.Engine.span_scope e
          ~args:
            [
              ("proc", string_of_int proc);
              ("req", string_of_int s_req);
              ("key", key);
              ("op", op_name s_cmd);
            ]
          "client_op" attempt
      in
      Hashtbl.remove pending proc;
      records :=
        { r with r_responded = Sim.Engine.now e; r_reply = Apps.Kv_store.decode_reply reply }
        :: !records)
    script;
  on_done ()

(* Host lookups re-resolve through the cluster on every event: a restart
   replaces the replica (and its host) under the same id, and later
   faults must land on the new incarnation. *)
let inject e smr scenario =
  Faults.Injector.install e
    ~hosts:(fun pid ->
      if pid >= 0 && pid < Array.length (Mu.Smr.replicas smr) then
        Some (Mu.Smr.replica smr pid).Mu.Replica.host
      else None)
    ~restart:(fun pid -> Mu.Smr.restart_replica smr ~id:pid)
    scenario

let run ?(on_engine = ignore) spec =
  let e = Sim.Engine.create ~seed:spec.seed () in
  on_engine e;
  let s =
    Mu.Sharded.create e Sim.Calibration.default spec.config ~shards:spec.shards
      ~make_app:(fun ~shard:_ ~replica:_ -> Apps.Kv_store.smr_app ~lose_put_every:spec.inject ())
  in
  Mu.Sharded.start s;
  let groups = List.init spec.shards (Mu.Sharded.shard s) in
  let sum f = List.fold_left (fun acc g -> acc + f g) 0 groups in
  (* Scenario host ids are shard 0's replica ids. *)
  inject e (Mu.Sharded.shard s 0) spec.scenario;
  (* (proc, script) per client fiber, the script built at fiber start: a
     random client splits its stream there, before it waits for a leader. *)
  let clients =
    match spec.clients with
    | Script scripts -> List.mapi (fun i script -> (i + 1, fun () -> script)) scripts
    | Random { clients; ops; think } ->
      List.concat_map
        (fun shard ->
          let keys = keys_for ~shards:spec.shards ~shard ~count:3 in
          List.init clients (fun c ->
              let proc = (shard * clients) + c + 1 in
              ( proc,
                fun () ->
                  random_script (Sim.Rng.split (Sim.Engine.rng e)) ~proc ~ops ~think ~keys
              )))
        (List.init spec.shards Fun.id)
  in
  let records = ref [] in
  let pending = Hashtbl.create 8 in
  let remaining = ref (List.length clients) in
  let completed = ref false in
  (* Quiesce: run past the last scheduled restart (clients often finish
     before a late restart fires), give any rejoin pipeline a bounded
     window to reach log parity, then let stragglers (replayers, recycler,
     elections after the last fault) settle before the state checks. Only
     restarts extend the run — they are the one fault whose effect (a
     completed rejoin) the outcome reports. *)
  let quiesce () =
    let restart_horizon =
      List.fold_left
        (fun a ev ->
          match ev.Faults.Scenario.action with
          | Faults.Scenario.Restart _ -> max a ev.Faults.Scenario.at
          | _ -> a)
        0 spec.scenario.Faults.Scenario.events
    in
    if Sim.Engine.now e < restart_horizon + 1_000 then
      Sim.Engine.sleep e (restart_horizon + 1_000 - Sim.Engine.now e);
    let budget = ref 100 in
    while sum Mu.Smr.restarts_in_flight > 0 && !budget > 0 do
      decr budget;
      Sim.Engine.sleep e 1_000_000
    done;
    Sim.Engine.sleep e 5_000_000;
    completed := true;
    Mu.Sharded.stop s;
    Sim.Engine.halt e
  in
  let on_done () =
    decr remaining;
    if !remaining = 0 then quiesce ()
  in
  (* With no client fiber to finish last, the run quiesces at once. *)
  if !remaining = 0 then Sim.Engine.spawn e ~name:"chaos-quiesce" quiesce;
  List.iter
    (fun (proc, script) ->
      Sim.Engine.spawn e
        ~name:(Printf.sprintf "chaos-client-%d" proc)
        (fun () ->
          client_fiber e s ~proc ~script:(script ()) ~records ~pending ~on_done))
    clients;
  (* A fiber that raises stops the run where it stands; the crash is one
     more failed check, and the run is judged like a stalled one. *)
  let crash =
    match Sim.Engine.run ~until:spec.horizon e with
    | () -> None
    | exception Sim.Engine.Fiber_crash (fiber, exn) ->
      Some (Printf.sprintf "%s: %s" fiber (Printexc.to_string exn))
  in
  (* A run that stalled (e.g. a scenario that left no majority) still gets
     checked for safety: ops still pending at the horizon are recorded
     unanswered, writes with an open interval — the checker may linearize
     them anywhere after their invocation. *)
  let record =
    Hashtbl.fold (fun _ r acc -> r :: acc) pending !records
    |> List.sort (fun a b ->
           compare (a.r_invoked, a.r_proc, a.r_req) (b.r_invoked, b.r_proc, b.r_req))
  in
  let checked = List.filter checkable record in
  let witness = Kv_check.witness checked in
  (* Re-read the replica arrays: restarts swap entries in place, and the
     safety checks must see the final incarnations. *)
  {
    spec;
    completed = !completed;
    ops = List.length checked;
    committed =
      sum (fun g ->
          Array.fold_left (fun acc r -> max acc (Mu.Log.fuo r.Mu.Replica.log)) 0 (Mu.Smr.replicas g));
    witness;
    record;
    violations = List.concat_map (fun g -> Mu.Invariants.check_all (Mu.Smr.replicas g)) groups;
    crash;
    rejoins = List.concat_map Mu.Smr.rejoins groups;
    shed = sum Mu.Smr.shed_requests;
    degraded_ns = sum Mu.Smr.degraded_total_ns;
  }

(* --- repro ---------------------------------------------------------------- *)

let cmd_to_json cmd =
  Json.(
    match cmd with
    | Apps.Kv_store.Get { key } -> Obj [ ("op", Str "get"); ("key", Str key) ]
    | Apps.Kv_store.Put { key; value } ->
      Obj [ ("op", Str "put"); ("key", Str key); ("value", Str value) ]
    | Apps.Kv_store.Delete { key } -> Obj [ ("op", Str "delete"); ("key", Str key) ])

let script_to_json script =
  let op o =
    Json.(
      Obj [ ("think", num_of_int o.s_think); ("req", num_of_int o.s_req); ("cmd", cmd_to_json o.s_cmd) ])
  in
  Json.List (List.map (fun c -> Json.List (List.map op c)) script)

let script_of_json j =
  let get conv name j =
    match Option.bind (Json.member name j) conv with
    | Some v -> v
    | None -> failwith (Printf.sprintf "repro: missing or bad %S" name)
  in
  let list j =
    match Json.to_list j with
    | Some l -> l
    | None -> failwith "repro: script is not a list of lists"
  in
  let cmd j =
    let key = get Json.to_str "key" j in
    match get Json.to_str "op" j with
    | "get" -> Apps.Kv_store.Get { key }
    | "delete" -> Apps.Kv_store.Delete { key }
    | "put" -> Apps.Kv_store.Put { key; value = get Json.to_str "value" j }
    | op -> failwith (Printf.sprintf "repro: unknown op %S" op)
  in
  let op o =
    let think = get Json.to_int "think" o and req = get Json.to_int "req" o in
    { s_think = think; s_req = req; s_cmd = cmd (get Option.some "cmd" o) }
  in
  try Ok (List.map (fun c -> List.map op (list c)) (list j))
  with Failure m -> Error m

(* Mu.Config.fields as JSON: (name, write, read into a config). *)
let config_fields =
  let attaches = Mu.Config.[ ("standalone", Standalone); ("direct", Direct); ("handover", Handover) ] in
  let to_json = function
    | Mu.Config.Int i -> Json.num_of_int i
    | Bool b -> Json.Bool b
    | Attach a -> Json.Str (fst (List.find (fun (_, x) -> x = a) attaches))
  in
  let of_json = function
    | Json.Bool b -> Some (Mu.Config.Bool b)
    | Str s -> Option.map (fun a -> Mu.Config.Attach a) (List.assoc_opt s attaches)
    | j -> Option.map (fun i -> Mu.Config.Int i) (Json.to_int j)
  in
  List.map
    (fun (name, get, set) ->
      (name, (fun c -> to_json (get c)), fun c j -> Option.bind (of_json j) (set c)))
    Mu.Config.fields

(* The whole spec as JSON object fields, the config fields inline: the
   spec half of every repro bundle. *)
let spec_fields s =
  let num = Json.num_of_int in
  [ ("seed", Json.Str (Int64.to_string s.seed)) ]
  @ List.map (fun (name, write, _) -> (name, write s.config)) config_fields
  @ [ ("shards", num s.shards); ("horizon", num s.horizon) ]
  @ (match s.clients with
    | Random { clients; ops; think } ->
      [ ("clients", num clients); ("ops", num ops); ("think", num think) ]
    | Script script -> [ ("script", script_to_json script) ])
  @ [ ("scenario", Faults.Scenario.to_json s.scenario); ("inject", num s.inject) ]

(* A field missing from the document reads as its default-spec value, so
   repros that carry only seed, n and scenario still replay. *)
let spec_of_json j =
  let ( let* ) = Result.bind in
  let opt name conv default =
    match Json.member name j with
    | None -> Ok default
    | Some v -> Option.to_result ~none:(Printf.sprintf "repro: bad %S" name) (conv v)
  in
  let* seed =
    match Option.bind (Json.member "seed" j) Json.to_str with
    | Some s -> Option.to_result ~none:(Printf.sprintf "repro: bad seed %S" s) (Int64.of_string_opt s)
    | None -> Error "repro: missing \"seed\""
  in
  let* scenario =
    match Json.member "scenario" j with
    | Some sj -> Faults.Scenario.of_json sj
    | None -> Error "repro: missing \"scenario\""
  in
  let d = spec ~seed ~n:Mu.Config.default.n scenario in
  let* config =
    List.fold_left
      (fun acc (name, _, read) ->
        let* c = acc in
        opt name (read c) c)
      (Ok d.config) config_fields
  in
  let* shards = opt "shards" Json.to_int d.shards in
  let* horizon = opt "horizon" Json.to_int d.horizon in
  let* inject = opt "inject" Json.to_int d.inject in
  let* clients =
    match (Json.member "script" j, d.clients) with
    | Some sj, _ -> Result.map (fun s -> Script s) (script_of_json sj)
    | None, Random r ->
      let* clients = opt "clients" Json.to_int r.clients in
      let* ops = opt "ops" Json.to_int r.ops in
      let* think = opt "think" Json.to_int r.think in
      Ok (Random { clients; ops; think })
    | None, (Script _ as c) -> Ok c
  in
  let* () = if shards >= 1 then Ok () else Error "repro: shards must be >= 1" in
  let* () =
    try Ok (Mu.Config.validate config) with Invalid_argument m -> Error ("repro: " ^ m)
  in
  let* () = Faults.Scenario.validate ~n:config.Mu.Config.n scenario in
  Ok { seed; config; shards; horizon; scenario; clients; inject }

(* --- generated cases -------------------------------------------------------- *)

(* Each case derives its own seed from the root PRNG; the scenario is
   generated from that seed and the engine is seeded with it too, so one
   64-bit number replays the whole run. *)
let cases ~count ~ns ~seed =
  let root = Sim.Rng.create seed in
  let ns = Array.of_list ns in
  if ns = [||] then invalid_arg "Chaos.cases: no cluster size";
  let rec go i =
    if i >= count then []
    else
      let run_seed = Sim.Rng.int64 root in
      let n = ns.(i mod Array.length ns) in
      let rng = Sim.Rng.create run_seed in
      let case =
        (spec ~seed:run_seed ~n (Faults.Scenario.generate rng ~n ~horizon:40_000_000), rng)
      in
      case :: go (i + 1)
  in
  go 0

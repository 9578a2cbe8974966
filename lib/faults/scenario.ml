type action =
  | Pause of int
  | Resume of int
  | Stop_process of int
  | Kill_host of int
  | Partition of int list * int list
  | Block of { src : int; dst : int }
  | Unblock of { src : int; dst : int }
  | Delay of { src : int; dst : int; ns : int }
  | Loss of { src : int; dst : int; p : float }
  | Dup of { src : int; dst : int; p : float }
  | Heal
  | Perm_fail of { pid : int; forced : bool }
  | Restart of int

type event = { at : int; action : action }
type t = { name : string; events : event list }

let pp_action ppf = function
  | Pause pid -> Fmt.pf ppf "pause(%d)" pid
  | Resume pid -> Fmt.pf ppf "resume(%d)" pid
  | Stop_process pid -> Fmt.pf ppf "stop_process(%d)" pid
  | Kill_host pid -> Fmt.pf ppf "kill_host(%d)" pid
  | Partition (a, b) ->
    Fmt.pf ppf "partition(%a|%a)"
      Fmt.(list ~sep:comma int)
      a
      Fmt.(list ~sep:comma int)
      b
  | Block { src; dst } -> Fmt.pf ppf "block(%d->%d)" src dst
  | Unblock { src; dst } -> Fmt.pf ppf "unblock(%d->%d)" src dst
  | Delay { src; dst; ns } -> Fmt.pf ppf "delay(%d->%d,%dns)" src dst ns
  | Loss { src; dst; p } -> Fmt.pf ppf "loss(%d->%d,%g)" src dst p
  | Dup { src; dst; p } -> Fmt.pf ppf "dup(%d->%d,%g)" src dst p
  | Heal -> Fmt.string ppf "heal"
  | Perm_fail { pid; forced } -> Fmt.pf ppf "perm_fail(%d,%b)" pid forced
  | Restart pid -> Fmt.pf ppf "restart(%d)" pid

(* --- validation --------------------------------------------------------- *)

let validate ~n t =
  let err fmt = Fmt.kstr (fun m -> Error m) fmt in
  (* Restart is only meaningful for a host that is down: validation walks
     the schedule in time order and tracks which hosts are stopped or
     killed, so a restart of a host that was never taken down — or was
     already restarted — is rejected up front with a clear error instead
     of being silently ignored at injection time. *)
  let down : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let check_pid what pid =
    if pid < 0 || pid >= n then err "%s: host %d outside cluster of %d" what pid n
    else Ok ()
  in
  let check_link what src dst =
    if src = dst then err "%s: link %d->%d is a self-loop" what src dst
    else
      Result.bind (check_pid what src) (fun () -> check_pid what dst)
  in
  let check_prob what p =
    if p >= 0. && p <= 1. then Ok () else err "%s: probability %g outside [0,1]" what p
  in
  let check_event { at; action } =
    if at < 0 then err "event at %dns: negative time" at
    else
      match action with
      | Pause pid -> check_pid "pause" pid
      | Resume pid -> check_pid "resume" pid
      | Stop_process pid ->
        Result.map (fun () -> Hashtbl.replace down pid ()) (check_pid "stop_process" pid)
      | Kill_host pid ->
        Result.map (fun () -> Hashtbl.replace down pid ()) (check_pid "kill_host" pid)
      | Restart pid ->
        Result.bind (check_pid "restart" pid) (fun () ->
            if Hashtbl.mem down pid then Ok (Hashtbl.remove down pid)
            else
              err
                "restart: host %d was never stopped or killed before %dns (restart only \
                 follows stop_process or kill_host)"
                pid at)
      | Partition (a, b) ->
        if a = [] || b = [] then err "partition: empty side"
        else if List.exists (fun x -> List.mem x b) a then
          err "partition: sides overlap"
        else
          List.fold_left
            (fun acc pid -> Result.bind acc (fun () -> check_pid "partition" pid))
            (Ok ()) (a @ b)
      | Block { src; dst } -> check_link "block" src dst
      | Unblock { src; dst } -> check_link "unblock" src dst
      | Delay { src; dst; ns } ->
        if ns < 0 then err "delay: negative delay %dns" ns
        else check_link "delay" src dst
      | Loss { src; dst; p } ->
        Result.bind (check_link "loss" src dst) (fun () -> check_prob "loss" p)
      | Dup { src; dst; p } ->
        Result.bind (check_link "dup" src dst) (fun () -> check_prob "dup" p)
      | Heal -> Ok ()
      | Perm_fail { pid; forced = _ } -> check_pid "perm_fail" pid
  in
  (* Events are checked in firing order (stable sort on [at], listed
     order breaking ties — exactly how the injector schedules them), so
     the stop/kill/restart state machine sees the run as it will play. *)
  let events = List.stable_sort (fun a b -> compare a.at b.at) t.events in
  List.fold_left (fun acc e -> Result.bind acc (fun () -> check_event e)) (Ok ()) events

(* --- JSON codec --------------------------------------------------------- *)

let int_field k v = (k, Json.num_of_int v)

let json_of_action = function
  | Pause pid -> [ ("action", Json.Str "pause"); int_field "pid" pid ]
  | Resume pid -> [ ("action", Json.Str "resume"); int_field "pid" pid ]
  | Stop_process pid -> [ ("action", Json.Str "stop_process"); int_field "pid" pid ]
  | Kill_host pid -> [ ("action", Json.Str "kill_host"); int_field "pid" pid ]
  | Partition (a, b) ->
    [
      ("action", Json.Str "partition");
      ("a", Json.List (List.map Json.num_of_int a));
      ("b", Json.List (List.map Json.num_of_int b));
    ]
  | Block { src; dst } ->
    [ ("action", Json.Str "block"); int_field "src" src; int_field "dst" dst ]
  | Unblock { src; dst } ->
    [ ("action", Json.Str "unblock"); int_field "src" src; int_field "dst" dst ]
  | Delay { src; dst; ns } ->
    [ ("action", Json.Str "delay"); int_field "src" src; int_field "dst" dst;
      int_field "ns" ns ]
  | Loss { src; dst; p } ->
    [ ("action", Json.Str "loss"); int_field "src" src; int_field "dst" dst;
      ("p", Json.Num p) ]
  | Dup { src; dst; p } ->
    [ ("action", Json.Str "dup"); int_field "src" src; int_field "dst" dst;
      ("p", Json.Num p) ]
  | Heal -> [ ("action", Json.Str "heal") ]
  | Restart pid -> [ ("action", Json.Str "restart"); int_field "pid" pid ]
  | Perm_fail { pid; forced } ->
    [ ("action", Json.Str "perm_fail"); int_field "pid" pid;
      ("forced", Json.Bool forced) ]

let to_json t =
  Json.Obj
    [
      ("name", Json.Str t.name);
      ( "events",
        Json.List
          (List.map
             (fun e -> Json.Obj (int_field "at" e.at :: json_of_action e.action))
             t.events) );
    ]

let to_string t = Json.to_string (to_json t)

let field_int j k =
  match Option.bind (Json.member k j) Json.to_int with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or non-integer field %S" k)

let field_float j k =
  match Option.bind (Json.member k j) Json.to_float with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or non-number field %S" k)

let field_int_list j k =
  match Option.bind (Json.member k j) Json.to_list with
  | None -> Error (Printf.sprintf "missing or non-array field %S" k)
  | Some items ->
    let ints = List.filter_map Json.to_int items in
    if List.length ints = List.length items then Ok ints
    else Error (Printf.sprintf "field %S: non-integer element" k)

let ( let* ) = Result.bind

let action_of_json j =
  match Option.bind (Json.member "action" j) Json.to_str with
  | None -> Error "event without an \"action\" string"
  | Some kind -> (
    match kind with
    | "pause" ->
      let* pid = field_int j "pid" in
      Ok (Pause pid)
    | "resume" ->
      let* pid = field_int j "pid" in
      Ok (Resume pid)
    | "stop_process" ->
      let* pid = field_int j "pid" in
      Ok (Stop_process pid)
    | "kill_host" ->
      let* pid = field_int j "pid" in
      Ok (Kill_host pid)
    | "partition" ->
      let* a = field_int_list j "a" in
      let* b = field_int_list j "b" in
      Ok (Partition (a, b))
    | "block" ->
      let* src = field_int j "src" in
      let* dst = field_int j "dst" in
      Ok (Block { src; dst })
    | "unblock" ->
      let* src = field_int j "src" in
      let* dst = field_int j "dst" in
      Ok (Unblock { src; dst })
    | "delay" ->
      let* src = field_int j "src" in
      let* dst = field_int j "dst" in
      let* ns = field_int j "ns" in
      Ok (Delay { src; dst; ns })
    | "loss" ->
      let* src = field_int j "src" in
      let* dst = field_int j "dst" in
      let* p = field_float j "p" in
      Ok (Loss { src; dst; p })
    | "dup" ->
      let* src = field_int j "src" in
      let* dst = field_int j "dst" in
      let* p = field_float j "p" in
      Ok (Dup { src; dst; p })
    | "heal" -> Ok Heal
    | "restart" ->
      let* pid = field_int j "pid" in
      Ok (Restart pid)
    | "perm_fail" ->
      let* pid = field_int j "pid" in
      let forced =
        match Json.member "forced" j with Some (Json.Bool b) -> b | _ -> true
      in
      Ok (Perm_fail { pid; forced })
    | other -> Error (Printf.sprintf "unknown action %S" other))

let of_json j =
  match Option.bind (Json.member "name" j) Json.to_str with
  | None -> Error "scenario without a \"name\" string"
  | Some name -> (
    match Option.bind (Json.member "events" j) Json.to_list with
    | None -> Error "scenario without an \"events\" array"
    | Some items ->
      let rec go acc = function
        | [] -> Ok { name; events = List.rev acc }
        | item :: rest ->
          let* at = field_int item "at" in
          let* action = action_of_json item in
          if at < 0 then Error (Printf.sprintf "event at %dns: negative time" at)
          else go ({ at; action } :: acc) rest
      in
      go [] items)

let of_string s =
  let* j = Json.of_string s in
  of_json j

(* --- named scenarios ---------------------------------------------------- *)

(* The initial leader is always the lowest id (0): elections pick the
   lowest alive replica, so scenarios written against a fresh cluster can
   target it by construction. Times leave ~5ms for the cluster to elect
   and confirm followers first. *)

let others n = List.init (n - 1) (fun i -> i + 1)

let crash_leader ~n:_ =
  {
    name = "crash-leader";
    events =
      [
        { at = 5_000_000; action = Pause 0 };
        { at = 25_000_000; action = Resume 0 };
      ];
  }

let partition_leader ~n =
  {
    name = "partition-leader";
    events =
      [
        { at = 5_000_000; action = Partition ([ 0 ], others n) };
        { at = 25_000_000; action = Heal };
      ];
  }

let lossy_fabric ~n =
  let faults =
    List.concat_map
      (fun dst ->
        [
          { at = 3_000_000; action = Loss { src = 0; dst; p = 0.2 } };
          { at = 3_000_000; action = Delay { src = dst; dst = 0; ns = 5_000 } };
        ])
      (others n)
  in
  { name = "lossy-fabric"; events = faults @ [ { at = 40_000_000; action = Heal } ] }

let kill_restart ~n:_ =
  (* Crash the initial leader outright (volatile state lost, NIC dead),
     then reboot the machine 20ms later: the cluster fails over, the
     rebooted replica restores its durable log, is re-admitted via a
     §5.4 configuration entry and catches up to parity under traffic. *)
  {
    name = "kill-restart";
    events =
      [
        { at = 5_000_000; action = Kill_host 0 };
        { at = 25_000_000; action = Restart 0 };
      ];
  }

let restart_backlog ~n:_ =
  (* Stop the initial leader's process and reboot it 5ms later, before
     the new leader's recycler (first pass at 10ms) has reclaimed
     anything: the rebooted replica replays its durable log and pulls the
     whole outage backlog from the new leader, one rate-bounded batch at
     a time, under traffic — a rejoin that lags for hundreds of us. *)
  {
    name = "restart-backlog";
    events =
      [
        { at = 1_000_000; action = Stop_process 0 };
        { at = 6_000_000; action = Restart 0 };
      ];
  }

let quorum_loss ~n =
  (* Kill a majority of the followers at 5ms and reboot one at 10ms: the
     leader stays up but is degraded until that replica rejoins. *)
  let kill i = { at = 5_000_000; action = Kill_host (i + 1) } in
  let events = List.init ((n / 2) + 1) kill @ [ { at = 10_000_000; action = Restart 1 } ] in
  { name = "quorum-loss"; events }

let named =
  [ "crash-leader"; "partition-leader"; "lossy-fabric"; "kill-restart"; "restart-backlog";
    "quorum-loss" ]

let by_name name ~n =
  match name with
  | "crash-leader" -> Some (crash_leader ~n)
  | "partition-leader" -> Some (partition_leader ~n)
  | "lossy-fabric" -> Some (lossy_fabric ~n)
  | "kill-restart" -> Some (kill_restart ~n)
  | "restart-backlog" -> Some (restart_backlog ~n)
  | "quorum-loss" -> Some (quorum_loss ~n)
  | _ -> None

(* --- coverage ------------------------------------------------------------ *)

type coverage = {
  scenarios : int;
  action_counts : (string * int) list;
  partition_shapes : (string * int) list;
  crashes : int;
  restarts : int;
}

(* Fixed kind order: coverage output is byte-stable and always names every
   class, so an unexercised one reads as an explicit zero. *)
let action_kinds =
  [ "pause"; "resume"; "stop_process"; "kill_host"; "partition"; "block"; "unblock";
    "delay"; "loss"; "dup"; "heal"; "perm_fail"; "restart" ]

let action_kind = function
  | Pause _ -> "pause"
  | Resume _ -> "resume"
  | Stop_process _ -> "stop_process"
  | Kill_host _ -> "kill_host"
  | Partition _ -> "partition"
  | Block _ -> "block"
  | Unblock _ -> "unblock"
  | Delay _ -> "delay"
  | Loss _ -> "loss"
  | Dup _ -> "dup"
  | Heal -> "heal"
  | Perm_fail _ -> "perm_fail"
  | Restart _ -> "restart"

let coverage ts =
  let counts = Hashtbl.create 16 in
  let shapes = Hashtbl.create 8 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0) in
  List.iter
    (fun t ->
      List.iter
        (fun e ->
          bump counts (action_kind e.action);
          match e.action with
          | Partition (a, b) ->
            let la = List.length a and lb = List.length b in
            bump shapes (Printf.sprintf "%d|%d" (min la lb) (max la lb))
          | _ -> ())
        t.events)
    ts;
  let count k = Option.value (Hashtbl.find_opt counts k) ~default:0 in
  {
    scenarios = List.length ts;
    action_counts = List.map (fun k -> (k, count k)) action_kinds;
    partition_shapes =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) shapes []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    crashes = count "stop_process" + count "kill_host";
    restarts = count "restart";
  }

let restart_fraction c =
  if c.crashes = 0 then 0.0 else float_of_int c.restarts /. float_of_int c.crashes

let pp_coverage ppf c =
  Fmt.pf ppf "@[<v>coverage over %d scenario(s):" c.scenarios;
  List.iter (fun (k, n) -> Fmt.pf ppf "@,  %-14s %4d" k n) c.action_counts;
  Fmt.pf ppf "@,  partition shapes: %s"
    (if c.partition_shapes = [] then "(none)"
     else
       String.concat ", "
         (List.map (fun (s, n) -> Printf.sprintf "%s x%d" s n) c.partition_shapes));
  Fmt.pf ppf "@,  restart fraction: %.2f (%d restart(s) / %d crash(es))@]"
    (restart_fraction c) c.restarts c.crashes

(* --- shrinking ----------------------------------------------------------- *)

let drop_event t i =
  if i < 0 || i >= List.length t.events then None
  else Some { t with events = List.filteri (fun j _ -> j <> i) t.events }

(* --- random generation --------------------------------------------------- *)

(* Scenarios must keep the cluster able to make progress once healed, or
   the chaos runner's clients would block forever and a liveness stall
   would masquerade as a safety bug:
   - at most [(n-1)/2] hosts are out at any instant, and crashes
     (permanent under §2.2) consume that budget for the rest of the run;
   - every pause is paired with a resume, every partition with a heal,
     every forced permission failure with its reset;
   - disruptions run in disjoint time windows inside [0, horizon * 3/4],
     so by [horizon] the surviving cluster is fault-free. *)
let generate rng ~n ~horizon =
  let budget = (n - 1) / 2 in
  let windows = 1 + Sim.Rng.int rng 4 in
  let t_first = max 2_000_000 (horizon / 10) in
  let t_last = horizon * 3 / 4 in
  let span = max 1 ((t_last - t_first) / windows) in
  let crashed = ref 0 in
  let events = ref [] in
  let emit at action = events := { at; action } :: !events in
  for w = 0 to windows - 1 do
    let w_start = t_first + (w * span) in
    let start = w_start + Sim.Rng.int rng (max 1 (span / 4)) in
    let stop = start + (span / 2) + Sim.Rng.int rng (max 1 (span / 4)) in
    let victim = Sim.Rng.int rng n in
    let host_budget_left = !crashed + 1 <= budget in
    match Sim.Rng.int rng 6 with
    | 0 when host_budget_left ->
      emit start (Pause victim);
      emit stop (Resume victim)
    | 1 when host_budget_left ->
      let rest = List.filter (fun i -> i <> victim) (List.init n Fun.id) in
      emit start (Partition ([ victim ], rest));
      List.iter
        (fun o ->
          emit stop (Unblock { src = victim; dst = o });
          emit stop (Unblock { src = o; dst = victim }))
        rest
    | 2 when host_budget_left ->
      (* Crash-stop (§2.2) or crash-recovery: the host goes down and, on
         a coin flip, reboots at the window's end. A restarted host
         restores its durable state and rejoins, so it gives its
         below-majority budget slot back — only permanent crashes keep
         consuming it for the rest of the run. Windows are time-disjoint,
         so the freed slot cannot be spent while the host is still down. *)
      incr crashed;
      if Sim.Rng.bool rng then emit start (Stop_process victim)
      else emit start (Kill_host victim);
      if Sim.Rng.bool rng then begin
        emit stop (Restart victim);
        decr crashed
      end
    | 3 ->
      emit start (Perm_fail { pid = victim; forced = true });
      emit stop (Perm_fail { pid = victim; forced = false })
    | _ when n = 1 -> () (* a single host has no link to disturb *)
    | _ ->
      let dst = (victim + 1 + Sim.Rng.int rng (n - 1)) mod n in
      if Sim.Rng.bool rng then begin
        let p = 0.05 +. (Sim.Rng.float rng *. 0.25) in
        emit start (Loss { src = victim; dst; p });
        emit stop (Loss { src = victim; dst; p = 0. })
      end
      else begin
        let ns = 1_000 + Sim.Rng.int rng 50_000 in
        emit start (Delay { src = victim; dst; ns });
        emit stop (Delay { src = victim; dst; ns = 0 })
      end
  done;
  let events =
    List.stable_sort (fun a b -> compare a.at b.at) (List.rev !events)
  in
  { name = Printf.sprintf "random-%d" windows; events }

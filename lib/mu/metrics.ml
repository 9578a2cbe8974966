module R = Telemetry.Registry
module H = Telemetry.Hdr

(* Registry instruments, resolved once when the replica is created on an
   engine that carries a registry. Find-or-create: a restarted replica's
   fresh counter value reaches the same instruments, so they accumulate
   across incarnations while the ints below start from zero. *)
type instruments = {
  reg : R.t;
  id : int;
  replication : H.t;
  commit_ns : H.t;
  elections : R.counter;
  demotions : R.counter;
  fuo : R.gauge;
  watermark : R.gauge;
  skips : R.counter;
  errors : R.counter;
  rejoin_parity : H.t;
  pulled : R.counter;
  shed_requests : R.counter;
  degraded : H.t;
  quorum_lost : R.gauge;
  restarts : R.counter;
  batch_occupancy : H.t;
  (* mu_score gauges are per (replica, peer); peers are discovered as
     the failure detector first reads them. *)
  score_gauges : (int, R.gauge) Hashtbl.t;
}

type t = {
  mutable proposes : int;
  mutable commits : int;
  mutable aborts : int;
  mutable prepare_phases : int;
  mutable accept_rounds : int;
  mutable catch_up_entries : int;
  mutable update_entries : int;
  mutable followers_grown : int;
  mutable permission_requests : int;
  mutable permission_grants : int;
  mutable perm_fast_path : int;
  mutable perm_slow_path : int;
  mutable fd_reads : int;
  mutable entries_applied : int;
  mutable slots_recycled : int;
  mutable recycle_skips : int;
  mutable recycler_errors : int;
  tel : instruments option;
}

let instruments reg ~id =
  let labels = [ ("replica", string_of_int id) ] in
  let c help name = R.counter reg ~help ~labels name
  and g help name = R.gauge reg ~help ~labels name
  and h help name = R.histogram reg ~help ~labels name in
  {
    reg;
    id;
    replication = h "Client-visible replication latency" "mu_replication_latency_ns";
    commit_ns = h "Leader commit (quorum write) latency" "mu_commit_apply_ns";
    elections = c "Follower-to-leader transitions" "mu_elections_total";
    demotions = c "Leader-to-follower transitions" "mu_demotions_total";
    fuo = g "First undecided offset" "mu_fuo";
    watermark = g "Log slots zeroed by the recycler" "mu_recycle_watermark";
    skips =
      c
        "Recycle rounds skipped because a confirmed peer's log head was unreadable or permission was in doubt"
        "mu_recycle_skips_total";
    errors =
      c "Error completions on recycler head reads and zeroing writes" "mu_recycler_errors_total";
    rejoin_parity =
      h "Restart-to-log-parity latency of a rejoining replica" "mu_rejoin_time_to_parity_ns";
    pulled =
      c "Log entries pulled from the leader during rejoin catch-up" "mu_catch_up_entries_total";
    shed_requests =
      c "Requests refused with a retryable error by a degraded leader's queue bound"
        "mu_shed_requests_total";
    degraded = h "Duration of leader degraded-mode windows (quorum lost)" "mu_degraded_ns";
    quorum_lost = g "1 while this leader is in a degraded (quorum-lost) window" "mu_quorum_lost";
    restarts =
      c "Host restarts begun (a rejoin is in flight until log parity)" "mu_restarts_total";
    batch_occupancy =
      h "Requests coalesced per committed log entry (batch occupancy)" "mu_batch_occupancy";
    score_gauges = Hashtbl.create 8;
  }

let create ?reg ?(id = 0) () =
  {
    proposes = 0;
    commits = 0;
    aborts = 0;
    prepare_phases = 0;
    accept_rounds = 0;
    catch_up_entries = 0;
    update_entries = 0;
    followers_grown = 0;
    permission_requests = 0;
    permission_grants = 0;
    perm_fast_path = 0;
    perm_slow_path = 0;
    fd_reads = 0;
    entries_applied = 0;
    slots_recycled = 0;
    recycle_skips = 0;
    recycler_errors = 0;
    tel = Option.map (fun reg -> instruments reg ~id) reg;
  }

(* The one list of counters, in [pp] order: its label and the field's
   getter. An empty label prints after the previous counter as "/v",
   which is how the permission fast and slow paths share one item. *)
let fields =
  [
    ("proposes", fun m -> m.proposes);
    ("commits", fun m -> m.commits);
    ("aborts", fun m -> m.aborts);
    ("prepares", fun m -> m.prepare_phases);
    ("accepts", fun m -> m.accept_rounds);
    ("catch-up", fun m -> m.catch_up_entries);
    ("update", fun m -> m.update_entries);
    ("grown", fun m -> m.followers_grown);
    ("perm-req", fun m -> m.permission_requests);
    ("perm-grant", fun m -> m.permission_grants);
    ("fast/slow", fun m -> m.perm_fast_path);
    ("", fun m -> m.perm_slow_path);
    ("fd-reads", fun m -> m.fd_reads);
    ("applied", fun m -> m.entries_applied);
    ("recycled", fun m -> m.slots_recycled);
    ("recycle-skips", fun m -> m.recycle_skips);
    ("recycler-errors", fun m -> m.recycler_errors);
  ]

let pp ppf m =
  List.iteri
    (fun i (label, get) ->
      if label = "" then Fmt.pf ppf "/%d" (get m)
      else Fmt.pf ppf "%s%s=%d" (if i = 0 then "" else " ") label (get m))
    fields

(* --- one call per protocol fact ------------------------------------------

   Each bumps the always-on int where the fact has one, then the registry
   instrument when the replica was created with a registry. *)

let recycle_skip m =
  m.recycle_skips <- m.recycle_skips + 1;
  match m.tel with Some i -> R.Counter.inc i.skips | None -> ()

let recycler_error m =
  m.recycler_errors <- m.recycler_errors + 1;
  match m.tel with Some i -> R.Counter.inc i.errors | None -> ()

let recycled m ~slots ~watermark =
  m.slots_recycled <- m.slots_recycled + slots;
  match m.tel with Some i -> R.Gauge.set i.watermark watermark | None -> ()

let commit m ~t0 ~now ~upto ~since =
  match m.tel with
  | Some i ->
    H.record i.commit_ns (now - t0);
    R.Gauge.set i.fuo upto;
    Option.iter (fun s -> H.record i.replication (now - s)) since
  | None -> ()

let score m ~peer v =
  match m.tel with
  | None -> ()
  | Some i ->
    let g =
      match Hashtbl.find_opt i.score_gauges peer with
      | Some g -> g
      | None ->
        let g =
          R.gauge i.reg ~help:"Pull-score of a peer as seen by this replica"
            ~labels:[ ("peer", string_of_int peer); ("replica", string_of_int i.id) ]
            "mu_score"
        in
        Hashtbl.replace i.score_gauges peer g;
        g
    in
    R.Gauge.set g v

let election m = match m.tel with Some i -> R.Counter.inc i.elections | None -> ()

let demotion m = match m.tel with Some i -> R.Counter.inc i.demotions | None -> ()

let batch m reqs =
  match m.tel with Some i -> H.record i.batch_occupancy (List.length reqs) | None -> ()

let shed m = match m.tel with Some i -> R.Counter.inc i.shed_requests | None -> ()

let quorum_lost m = match m.tel with Some i -> R.Gauge.set i.quorum_lost 1 | None -> ()

let quorum_regained m ~degraded_ns =
  match m.tel with
  | Some i ->
    H.record i.degraded degraded_ns;
    R.Gauge.set i.quorum_lost 0
  | None -> ()

let restart m = match m.tel with Some i -> R.Counter.inc i.restarts | None -> ()

let rejoined m ~parity_ns ~entries =
  match m.tel with
  | Some i ->
    H.record i.rejoin_parity parity_ns;
    if entries > 0 then R.Counter.add i.pulled entries
  | None -> ()

(* Alert rules: a named check evaluated once per SLO window, wrapped in
   a hysteresis state machine. A rule fires after [fire_after]
   consecutive breaching windows and clears after [clear_after]
   consecutive clean ones, so one noisy window cannot flap an alert.
   Checks are pure functions of the window (a few keep one window of
   history in a closure — rate-of-change, stall detection); nothing
   here reads wall time or PRNG. *)

type outcome = Ok | Breach of string

type spec = {
  name : string;
  fire_after : int;
  clear_after : int;
  check : Slo.window -> outcome;
}

type t = {
  spec : spec;
  mutable breaches : int;  (* consecutive breaching windows *)
  mutable oks : int;  (* consecutive clean windows *)
  mutable firing : bool;
}

type edge = [ `Fire | `Clear ]

let make spec =
  if spec.fire_after < 1 || spec.clear_after < 1 then
    invalid_arg "Rules.make: fire_after/clear_after must be >= 1";
  { spec; breaches = 0; oks = 0; firing = false }

let name t = t.spec.name
let firing t = t.firing

let step t w =
  match t.spec.check w with
  | Breach detail ->
    t.breaches <- t.breaches + 1;
    t.oks <- 0;
    if (not t.firing) && t.breaches >= t.spec.fire_after then begin
      t.firing <- true;
      Some (`Fire, detail)
    end
    else None
  | Ok ->
    t.oks <- t.oks + 1;
    t.breaches <- 0;
    if t.firing && t.oks >= t.spec.clear_after then begin
      t.firing <- false;
      Some (`Clear, "recovered")
    end
    else None

(* --- built-in checks --------------------------------------------------- *)

let spec ?(fire_after = 1) ?(clear_after = 1) ~name check =
  { name; fire_after; clear_after; check }

(* The window's [q] quantile of histogram [metric] is above [limit_ns]. *)
let quantile_above ?fire_after ?clear_after ~name ~metric ~q ~limit_ns () =
  spec ?fire_after ?clear_after ~name (fun w ->
      match Slo.quantile_ns w metric q with
      | Some v when v > limit_ns ->
        Breach (Printf.sprintf "p%g=%dns limit=%dns" (q *. 100.) v limit_ns)
      | _ -> Ok)

(* [metric]'s per-second rate over the window is below [min_per_s]. *)
let rate_floor ?fire_after ?clear_after ~name ~metric ~min_per_s () =
  spec ?fire_after ?clear_after ~name (fun w ->
      let r = Slo.rate_per_s w metric in
      if r < min_per_s then Breach (Printf.sprintf "rate=%g/s floor=%g/s" r min_per_s)
      else Ok)

(* [metric]'s per-second rate over the window is above [max_per_s]. *)
let rate_ceiling ?fire_after ?clear_after ~name ~metric ~max_per_s () =
  spec ?fire_after ?clear_after ~name (fun w ->
      let r = Slo.rate_per_s w metric in
      if r > max_per_s then
        Breach (Printf.sprintf "rate=%g/s ceiling=%g/s" r max_per_s)
      else Ok)

let gauge_above ?fire_after ?clear_after ~name ~metric ~agg ~limit () =
  spec ?fire_after ?clear_after ~name (fun w ->
      match Slo.value w agg metric with
      | Some v when v > limit -> Breach (Printf.sprintf "value=%g limit=%g" v limit)
      | _ -> Ok)

(* Rate-of-change: this window's delta exceeds [factor] x the previous
   window's (previous must be non-zero, so a cold start cannot breach). *)
let rate_jump ?fire_after ?clear_after ~name ~metric ~factor () =
  let prev = ref 0.0 in
  spec ?fire_after ?clear_after ~name (fun w ->
      let d = Slo.delta w metric in
      let p = !prev in
      prev := d;
      if p > 0.0 && d > p *. factor then
        Breach (Printf.sprintf "delta=%g prev=%g factor=%g" d p factor)
      else Ok)

(* More than [max_elections] leader elections in one window. *)
let leader_flap ?fire_after ?clear_after ?(max_elections = 1) () =
  spec ?fire_after ?clear_after ~name:"leader_flap" (fun w ->
      let d = Slo.delta w "mu_elections_total" in
      if d > float_of_int max_elections then
        Breach (Printf.sprintf "elections=%g in window" d)
      else Ok)

(* A leader is in a degraded (quorum-lost) window, or one closed since
   the last window: a degraded window shorter than the sampling interval
   falls between two samples of the gauge, but its duration lands in
   [mu_degraded_ns]. *)
let quorum_loss ?fire_after ?clear_after () =
  spec ?fire_after ?clear_after ~name:"quorum_loss" (fun w ->
      let lost = Option.value ~default:0.0 (Slo.value w Slo.Max "mu_quorum_lost") in
      if lost > 0.0 || Slo.delta w "mu_degraded_ns" > 0.0 then
        Breach "leader degraded: quorum lost"
      else Ok)

(* Commit stall: the cluster-wide first-undecided-offset stopped
   advancing while work has been committed before (fuo > 0). The
   closure keeps the previous window's fuo. A finished run keeps the
   rule breaching at the tail — deterministic, and exactly what a
   commit-progress watchdog should say about a cluster that stopped. *)
let quorum_stall ?(fire_after = 3) ?clear_after () =
  let prev = ref (-1.0) in
  spec ~fire_after ?clear_after ~name:"quorum_stall" (fun w ->
      match Slo.value w Slo.Max "mu_fuo" with
      | Some v ->
        let p = !prev in
        prev := v;
        if v > 0.0 && v = p then Breach (Printf.sprintf "fuo stuck at %g" v) else Ok
      | None -> Ok)

(* Rejoin watchdog: a restart is in flight (restarts begun exceed
   parities reached) for too many consecutive windows. *)
let rejoin_lag ?(fire_after = 2) ?clear_after () =
  spec ~fire_after ?clear_after ~name:"rejoin_lag" (fun w ->
      let restarts =
        match Slo.value w Slo.Sum "mu_restarts_total" with Some v -> v | None -> 0.0
      in
      let parities =
        (* histogram sample values are cumulative counts *)
        match Slo.value w Slo.Sum "mu_rejoin_time_to_parity_ns" with
        | Some v -> v
        | None -> 0.0
      in
      if restarts > parities then
        Breach (Printf.sprintf "rejoins in flight: %g" (restarts -. parities))
      else Ok)

let defaults () =
  [
    quantile_above ~name:"commit_p50" ~metric:"mu_commit_apply_ns" ~q:0.5
      ~limit_ns:20_000 ~fire_after:2 ~clear_after:2 ();
    quantile_above ~name:"commit_p99" ~metric:"mu_commit_apply_ns" ~q:0.99
      ~limit_ns:100_000 ~fire_after:2 ~clear_after:2 ();
    rate_floor ~name:"commit_rate_floor" ~metric:"mu_commit_apply_ns"
      ~min_per_s:1.0 ~fire_after:5 ~clear_after:1 ();
    rate_ceiling ~name:"shed_ceiling" ~metric:"mu_shed_requests_total"
      ~max_per_s:0.0 ~fire_after:1 ~clear_after:2 ();
    gauge_above ~name:"queue_depth" ~metric:"serving_queue_depth" ~agg:Slo.Max
      ~limit:64.0 ~fire_after:2 ~clear_after:2 ();
    rate_jump ~name:"replication_burst" ~metric:"mu_replication_latency_ns"
      ~factor:8.0 ~fire_after:1 ~clear_after:1 ();
    leader_flap ~fire_after:1 ~clear_after:2 ();
    quorum_loss ~fire_after:1 ~clear_after:1 ();
    quorum_stall ~fire_after:5 ~clear_after:1 ();
    rejoin_lag ~fire_after:2 ~clear_after:1 ();
  ]

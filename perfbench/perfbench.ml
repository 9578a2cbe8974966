(* The repository benchmark: three workloads driven through the public
   interfaces of sim, rdma, mu, apps, serving, recovery and workload.

   A run has a fixed, seed-determined virtual part (its latencies are
   byte-identical for a given seed) and a wall-clock part that repeats
   the same work until the time budget is spent. A traced run repeats
   the fixed part with a probe sink, a profiler and the engine's
   self-cost sampler attached, and derives the per-layer numbers from
   what they observe. See README.md for the metric definitions. *)

let cal = Sim.Calibration.default
let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Growable int vectors and open-loop percentiles                      *)
(* ------------------------------------------------------------------ *)

module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
end

(* Latencies of answered requests plus a count of requests that were
   shed, refused or never answered: those rank above every answer, so a
   percentile that reaches them is infinite. *)
type lat = { ok : int array; missed : int }

let lat_of ?(missed = 0) arr =
  let ok = Array.copy arr in
  Array.sort compare ok;
  { ok; missed }

let lat_concat ls =
  lat_of
    ~missed:(List.fold_left (fun acc l -> acc + l.missed) 0 ls)
    (Array.concat (List.map (fun l -> l.ok) ls))

let lat_count l = Array.length l.ok + l.missed

(* Nearest rank over every attempt, in ns; [infinity] when the rank
   falls on a failure. *)
let pct_ns l p =
  let n = lat_count l in
  if n = 0 then nan
  else
    let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
    if rank > Array.length l.ok then infinity else float_of_int l.ok.(rank - 1)

let pct_us l p = pct_ns l p /. 1000.

let beyond l p =
  let n = lat_count l in
  n - max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))

(* The highest of these percentiles that still has ten samples beyond it. *)
let tail_pct l =
  List.find_opt (fun p -> beyond l p >= 10) [ 99.9; 99.; 95.; 90.; 50. ]
  |> Option.value ~default:50.

(* ------------------------------------------------------------------ *)
(* Trace tap: the traced run's observer                                 *)
(* ------------------------------------------------------------------ *)

(* Per-request provenance marks, from the request span Mu opens at
   submit: submit → pickup → applied (first replica) → reply. *)
type req_marks = {
  mutable submit : int;
  mutable pickup : int;
  mutable applied : int;
  mutable close : int;
}

(* Fiber classes for wall-time attribution. An event belongs to the
   fiber that scheduled it; events scheduled outside any fiber (RDMA
   completions, wire arrivals, timers, and what they wake) and wall time
   outside any engine run are "scheduler". *)
let classes = [| "leader"; "replayer"; "control"; "client"; "recovery"; "scheduler" |]
let scheduler_class = 5

let class_of_fiber name =
  let has s =
    let ls = String.length s and ln = String.length name in
    let rec go i = i + ls <= ln && (String.sub name i ls = s || go (i + 1)) in
    go 0
  in
  if has "leader-service" then 0
  else if has "replayer" then 1
  else if
    has "heartbeat" || has "/role" || has "monitor-" || has "perm-mgmt" || has "recycler"
    || has "config-change"
  then 2
  else if has "rejoin" || has "restart-" then 4
  else 3

type tap = {
  (* per engine *)
  spans : (int, req_marks) Hashtbl.t;
  by_req : (int, req_marks) Hashtbl.t;
  perm_open : (int * int, int) Hashtbl.t;
  perm_last : (int * int, int * int) Hashtbl.t;
      (** Last flag change per fiber: (index in [perm_us], start). *)
  perm_slow_from : (int * int, int * int) Hashtbl.t;
  fiber_class : (int, int) Hashtbl.t;
  mutable cur_req : int;
  mutable leaders : int list;  (** "leader" instants, newest first. *)
  mutable cur_class : int;
  mutable last_wall : float;
  (* accumulated over every engine *)
  mutable events : int;
  mutable fibers : int;
  class_wall : float array;
  mutable wrs : int;
  perm_us : Ivec.t;
  mutable perm_switches : int;
  mutable perm_slow : int;
  mutable slots : int;
  mutable slot_reqs : int;
  mutable groups : float;
  queue : Ivec.t;
  replicate : Ivec.t;
  reply : Ivec.t;
  mutable split_requests : int;
  mutable split_bad : int;
  mutable selfcosts : Sim.Engine.selfcost list;
  mutable apply_wall : float;
  mutable applies : int;
  mutable proposes : int;
  mutable commits : int;
}

let tap_create () =
  {
    spans = Hashtbl.create 1024;
    by_req = Hashtbl.create 1024;
    perm_open = Hashtbl.create 16;
    perm_last = Hashtbl.create 16;
    perm_slow_from = Hashtbl.create 16;
    fiber_class = Hashtbl.create 1024;
    cur_req = -1;
    leaders = [];
    cur_class = scheduler_class;
    last_wall = 0.;
    events = 0;
    fibers = 0;
    class_wall = Array.make (Array.length classes) 0.;
    wrs = 0;
    perm_us = Ivec.create ();
    perm_switches = 0;
    perm_slow = 0;
    slots = 0;
    slot_reqs = 0;
    groups = 0.;
    queue = Ivec.create ();
    replicate = Ivec.create ();
    reply = Ivec.create ();
    split_requests = 0;
    split_bad = 0;
    selfcosts = [];
    apply_wall = 0.;
    applies = 0;
    proposes = 0;
    commits = 0;
  }

let arg ev k = List.assoc_opt k ev.Sim.Probe.args
let int_arg ev k = Option.bind (arg ev k) int_of_string_opt

let on_prov tap (ev : Sim.Probe.event) =
  match ev.name with
  | "span_begin" -> (
    match arg ev "name" with
    | Some "request" when tap.cur_req >= 0 ->
      let m = { submit = ev.ts; pickup = -1; applied = -1; close = -1 } in
      Option.iter (fun id -> Hashtbl.replace tap.spans id m) (int_arg ev "span");
      Hashtbl.replace tap.by_req tap.cur_req m
    | Some "batch" ->
      tap.slots <- tap.slots + 1;
      tap.slot_reqs <- tap.slot_reqs + Option.value (int_arg ev "reqs") ~default:0;
      tap.groups <-
        tap.groups +. (1. /. float_of_int (Option.value (int_arg ev "doorbell") ~default:1))
    | _ -> ())
  | "point" -> (
    match Option.bind (int_arg ev "span") (Hashtbl.find_opt tap.spans) with
    | Some m -> (
      match arg ev "name" with
      | Some "pickup" when m.applied < 0 -> m.pickup <- ev.ts
      | Some "applied" when m.applied < 0 -> m.applied <- ev.ts
      | _ -> ())
    | None -> ())
  | "span_end" -> (
    match Option.bind (int_arg ev "span") (Hashtbl.find_opt tap.spans) with
    | Some m when m.close < 0 -> m.close <- ev.ts
    | _ -> ())
  | _ -> ()

let is_perm name = name = "perm_flags" || name = "perm_restart"

let sink tap (ev : Sim.Probe.event) =
  match ev.cat with
  | "prov" -> on_prov tap ev
  | "rdma" -> (
    match ev.kind with
    | Sim.Probe.Async_begin -> tap.wrs <- tap.wrs + 1
    | Sim.Probe.Span_begin when is_perm ev.name ->
      if ev.name = "perm_flags" then tap.perm_switches <- tap.perm_switches + 1;
      Hashtbl.replace tap.perm_open (ev.pid, ev.tid) ev.ts
    | Sim.Probe.Span_end when is_perm ev.name -> (
      let key = (ev.pid, ev.tid) in
      match Hashtbl.find_opt tap.perm_open key, Hashtbl.find_opt tap.perm_slow_from key with
      | _, Some (idx, t0) when ev.name = "perm_restart" ->
        (* The QP restart after a failed flag change ends the switch. *)
        Hashtbl.remove tap.perm_slow_from key;
        tap.perm_us.Ivec.a.(idx) <- ev.ts - t0
      | Some t0, _ when ev.name = "perm_flags" ->
        Hashtbl.replace tap.perm_last key (tap.perm_us.Ivec.n, t0);
        Ivec.push tap.perm_us (ev.ts - t0)
      | _ -> ())
    | Sim.Probe.Instant when ev.name = "perm_slow_path" ->
      tap.perm_slow <- tap.perm_slow + 1;
      Option.iter
        (Hashtbl.replace tap.perm_slow_from (ev.pid, ev.tid))
        (Hashtbl.find_opt tap.perm_last (ev.pid, ev.tid))
    | _ -> ())
  | "mu" when ev.kind = Sim.Probe.Instant && ev.name = "leader" ->
    tap.leaders <- ev.ts :: tap.leaders
  | _ -> ()

let profiler tap =
  {
    Sim.Engine.prof_event = (fun ~now:_ -> tap.events <- tap.events + 1);
    prof_attr =
      (fun ~pid:_ ~tid ~spans:_ ->
        let w = wall () in
        tap.class_wall.(tap.cur_class) <- tap.class_wall.(tap.cur_class) +. (w -. tap.last_wall);
        tap.last_wall <- w;
        tap.cur_class <-
          (if tid = 0 then scheduler_class
           else Option.value (Hashtbl.find_opt tap.fiber_class tid) ~default:scheduler_class));
    prof_fiber =
      (fun ~tid ~pid:_ ~name ->
        tap.fibers <- tap.fibers + 1;
        Hashtbl.replace tap.fiber_class tid (class_of_fiber name));
    prof_span = (fun ~id:_ ~name:_ -> ());
    prof_host = (fun ~pid:_ ~name:_ -> ());
  }

(* A fresh engine: reset per-engine state, attach every observer. *)
let attach tap e =
  Hashtbl.reset tap.spans;
  Hashtbl.reset tap.by_req;
  Hashtbl.reset tap.perm_open;
  Hashtbl.reset tap.perm_last;
  Hashtbl.reset tap.perm_slow_from;
  Hashtbl.reset tap.fiber_class;
  tap.cur_req <- -1;
  tap.leaders <- [];
  Sim.Probe.set_sink (Sim.Engine.probe e) (sink tap);
  Sim.Engine.set_provenance e true;
  Sim.Engine.set_profiler e (profiler tap);
  let sc = Sim.Engine.selfcost_create ~clock:wall () in
  Sim.Engine.set_selfcost e sc;
  tap.selfcosts <- sc :: tap.selfcosts;
  tap.cur_class <- scheduler_class;
  tap.last_wall <- wall ()

(* Close the wall account of an engine run: the interval since the last
   event belongs to the benchmark's own code, not to a fiber. *)
let detach tap =
  let w = wall () in
  tap.class_wall.(tap.cur_class) <- tap.class_wall.(tap.cur_class) +. (w -. tap.last_wall);
  tap.last_wall <- w;
  tap.cur_class <- scheduler_class

(* Instrumentation context handed to a workload: [None] when untraced,
   so every hook below is one match. *)
type ctx = { tap : tap option }

let untraced = { tap = None }

let submitting ctx i = match ctx.tap with Some t -> t.cur_req <- i | None -> ()
let submitted ctx = match ctx.tap with Some t -> t.cur_req <- -1 | None -> ()

(* Split request [i]'s latency [due, fin] at its provenance marks. *)
let finished ctx i ~due ~fin =
  match ctx.tap with
  | None -> ()
  | Some t -> (
    match Hashtbl.find_opt t.by_req i with
    | None -> ()
    | Some m ->
      Hashtbl.remove t.by_req i;
      t.split_requests <- t.split_requests + 1;
      let parts =
        [ m.submit - due; m.pickup - m.submit; m.applied - m.pickup; m.close - m.applied;
          fin - m.close ]
      in
      if
        m.pickup < 0 || m.applied < 0 || m.close < 0
        || List.exists (fun d -> d < 0) parts
        || List.fold_left ( + ) 0 parts <> fin - due
      then t.split_bad <- t.split_bad + 1
      else begin
        Ivec.push t.queue (m.pickup - m.submit);
        Ivec.push t.replicate (m.applied - m.pickup);
        Ivec.push t.reply (m.close - m.applied)
      end)

(* Propose calls started and returned, summed over a cluster's replicas. *)
let tally_proposes ctx replicas =
  match ctx.tap with
  | None -> ()
  | Some t ->
    Array.iter
      (fun (r : Mu.Replica.t) ->
        t.proposes <- t.proposes + r.Mu.Replica.metrics.Mu.Metrics.proposes;
        t.commits <- t.commits + r.Mu.Replica.metrics.Mu.Metrics.commits)
      replicas

let leaders_since ctx ts =
  match ctx.tap with
  | None -> []
  | Some t -> List.rev (List.filter (fun l -> l >= ts) t.leaders)

let run_sim ctx ~seed ?until f =
  let setup =
    {
      Workload.Experiments.default_setup with
      Workload.Experiments.seed = Int64.of_int seed;
      on_engine = Option.map (fun t -> attach t) ctx.tap;
    }
  in
  let r = Workload.Experiments.run_sim setup ?until f in
  Option.iter detach ctx.tap;
  r

(* ------------------------------------------------------------------ *)
(* Results of one repetition                                            *)
(* ------------------------------------------------------------------ *)

type rep = {
  attempted : int;
  failed : int;  (** Shed, refused or unanswered. *)
  committed : int;  (** Requests that committed and were answered. *)
  lats : (string * lat) list;  (** Virtual latencies by name; "" is primary. *)
  counts : (string * float) list;  (** Virtual counters, summed over reps. *)
  checks : (string * (unit -> bool)) list;  (** Deferred correctness checks. *)
}

let wait_until e ?(poll = 10_000) pred =
  while not (pred ()) do
    Sim.Engine.sleep e poll
  done

(* ------------------------------------------------------------------ *)
(* kv-closed                                                            *)
(* ------------------------------------------------------------------ *)

let kv_cfg =
  {
    Mu.Config.default with
    Mu.Config.log_slots = 16_384;
    recycle_interval = 2_000_000;
    attach = Mu.Config.Direct;
    max_batch = 1;
    max_outstanding = 1;
  }

let kv_warmup = 50

(* The replica application, timed per apply in the traced run. *)
let kv_app ctx =
  let app = Apps.Kv_store.smr_app () in
  match ctx.tap with
  | None -> app
  | Some t ->
    {
      app with
      Mu.Smr.apply =
        (fun b ->
          let t0 = wall () in
          let r = app.Mu.Smr.apply b in
          t.apply_wall <- t.apply_wall +. (wall () -. t0);
          t.applies <- t.applies + 1;
          r);
    }

let kv_setup ~seed =
  run_sim untraced ~seed (fun e ->
      let smr = Mu.Smr.create e cal kv_cfg ~make_app:(fun _ -> Apps.Kv_store.smr_app ()) in
      Mu.Smr.start smr;
      Mu.Smr.wait_live smr;
      Mu.Smr.stop smr)

let model_replay cmds replies =
  let m = ref Modelcheck.Model.Kv.empty in
  let ok = ref true in
  Array.iteri
    (fun i cmd ->
      let m', expect = Modelcheck.Model.Kv.apply !m ~client:1 ~req_id:(i + 1) cmd in
      m := m';
      if replies.(i) <> Some expect then ok := false)
    cmds;
  !ok

let kv_closed ctx ~seed ~requests =
  let kind = Apps.Transport.Herd_rdma in
  run_sim ctx ~seed (fun e ->
      let rng = Sim.Rng.split (Sim.Engine.rng e) in
      let transport = Apps.Transport.create kind cal (Sim.Rng.split (Sim.Engine.rng e)) in
      let compute = Apps.Transport.app_compute kind cal in
      let n = kv_warmup + requests in
      let cmds =
        Array.init n (fun i ->
            Workload.Generators.kv_command rng Workload.Generators.default_kv_mix ~client:1
              ~req_id:(i + 1))
      in
      (* Replicated leg: one closed-loop client, HERD transport legs around
         a Mu.Smr submit. *)
      let smr = Mu.Smr.create e cal kv_cfg ~make_app:(fun _ -> kv_app ctx) in
      Mu.Smr.start smr;
      Mu.Smr.wait_live smr;
      let replies = Array.make n None in
      let lat = Ivec.create () and rtts = Ivec.create () in
      for i = 0 to n - 1 do
        let payload = Apps.Kv_store.encode_command ~client:1 ~req_id:(i + 1) cmds.(i) in
        let rtt = Apps.Transport.rtt_sample transport in
        let due = Sim.Engine.now e in
        Sim.Engine.sleep e (Apps.Transport.request_leg transport rtt);
        submitting ctx i;
        let reply = Mu.Smr.submit_async ~retry:false smr payload in
        submitted ctx;
        let reply = Sim.Engine.Ivar.read reply in
        Sim.Engine.sleep e compute;
        Sim.Engine.sleep e (Apps.Transport.response_leg transport rtt);
        let fin = Sim.Engine.now e in
        finished ctx i ~due ~fin;
        replies.(i) <- Apps.Kv_store.decode_reply reply;
        if i >= kv_warmup then begin
          Ivec.push lat (fin - due);
          Ivec.push rtts rtt
        end
      done;
      tally_proposes ctx (Mu.Smr.replicas smr);
      Mu.Smr.stop smr;
      (* Unreplicated leg: the same client and store on a single node. *)
      let u = max 1 (requests / 10) in
      let ucmds =
        Array.init u (fun i ->
            Workload.Generators.kv_command rng Workload.Generators.default_kv_mix ~client:1
              ~req_id:(i + 1))
      in
      let single = Apps.Kv_store.smr_app () in
      let ureplies = Array.make u None in
      let ulat = Ivec.create () in
      Array.iteri
        (fun i cmd ->
          let rtt = Apps.Transport.rtt_sample transport in
          let due = Sim.Engine.now e in
          Sim.Engine.sleep e (Apps.Transport.request_leg transport rtt);
          Sim.Engine.sleep e compute;
          let reply =
            single.Mu.Smr.apply (Apps.Kv_store.encode_command ~client:1 ~req_id:(i + 1) cmd)
          in
          Sim.Engine.sleep e (Apps.Transport.response_leg transport rtt);
          ureplies.(i) <- Apps.Kv_store.decode_reply reply;
          Ivec.push ulat (Sim.Engine.now e - due))
        ucmds;
      {
        attempted = n;
        failed = 0;
        committed = n;
        lats =
          [
            ("", lat_of (Ivec.to_array lat));
            ("unreplicated", lat_of (Ivec.to_array ulat));
            ("transport", lat_of (Ivec.to_array rtts));
          ];
        counts = [];
        checks =
          [
            ("kv-closed replies equal a sequential Model.Kv replay", fun () ->
              model_replay cmds replies);
            ("unreplicated replies equal a sequential Model.Kv replay", fun () ->
              model_replay ucmds ureplies);
          ];
      })

(* ------------------------------------------------------------------ *)
(* serve-open                                                           *)
(* ------------------------------------------------------------------ *)

let shards = 4
let serve_cfg = Serving.Surface.config ~batch:8 ~doorbell:4
let serve_clients = 100_000
let slo_ns = 50_000

let echo_app ~shard:_ ~replica:_ = Mu.Smr.stateless_app (fun b -> b)

let serve_setup ~seed =
  run_sim untraced ~seed (fun e ->
      let s = Mu.Sharded.create e cal serve_cfg ~shards ~make_app:echo_app in
      Mu.Sharded.start s;
      Mu.Sharded.wait_live s;
      Mu.Sharded.stop s)

type cell = {
  c_issued : int;
  c_done : int;
  c_shed : int;
  c_unanswered : int;
  c_lat : lat;
  c_retries : int;
  c_inflight_max : int;
  c_gen_late : int;
  c_conserved : bool;
  c_echo_ok : bool;
}

(* One offered rate for [duration] virtual ns. The loop is the serving
   tier's (Serving.Tier.run): population → router → per-shard admission
   → Mu.Sharded, with shed replies retried after back-off; here every
   arrival also keeps its due time and final outcome, so failures count
   as misses and conservation can be checked. *)
let serve_cell ctx ~seed ~rate ~duration =
  run_sim ctx ~seed ~until:((duration * 50) + 1_000_000_000) (fun e ->
      let rng = Sim.Rng.split (Sim.Engine.rng e) in
      let think_ns = int_of_float (float_of_int serve_clients *. 1000. /. rate) in
      let population = Serving.Population.create ~clients:serve_clients ~think_ns rng in
      let s = Mu.Sharded.create e cal serve_cfg ~shards ~make_app:echo_app in
      Mu.Sharded.start s;
      Mu.Sharded.wait_live s;
      let router = Serving.Router.create ~shards in
      let bp = Array.init shards (fun _ -> Recovery.Backpressure.create ~limit:128) in
      (* Per arrival: 0 pending, 1 answered, 2 shed. *)
      let state = Ivec.create () and lat = Ivec.create () in
      let shed = ref 0 and answered = ref 0 and late = ref 0 and echo_ok = ref true in
      let open_reqs = ref 0 in
      let t_end = Sim.Engine.now e + duration in
      let issue (a : Serving.Population.arrival) ~due =
        let idx = state.Ivec.n in
        Ivec.push state 0;
        let shard = Serving.Router.route router a.Serving.Population.key in
        let st = Serving.Router.stats router shard in
        if not (Recovery.Backpressure.admit bp.(shard) ~depth:st.Serving.Router.inflight)
        then begin
          st.Serving.Router.shed <- st.Serving.Router.shed + 1;
          state.Ivec.a.(idx) <- 2;
          incr shed
        end
        else begin
          st.Serving.Router.inflight <- st.Serving.Router.inflight + 1;
          if st.Serving.Router.inflight > st.Serving.Router.max_inflight then
            st.Serving.Router.max_inflight <- st.Serving.Router.inflight;
          st.Serving.Router.submitted <- st.Serving.Router.submitted + 1;
          incr open_reqs;
          let body =
            Bytes.of_string
              (Printf.sprintf "c%d:%s" a.Serving.Population.client a.Serving.Population.key)
          in
          Sim.Engine.spawn e ~name:"serving-req" (fun () ->
              let rec attempt tries =
                submitting ctx idx;
                let ivar = Mu.Sharded.submit_async s ~key:a.Serving.Population.key body in
                submitted ctx;
                let reply = Sim.Engine.Ivar.read ivar in
                if Mu.Smr.is_retryable reply && tries > 0 then begin
                  st.Serving.Router.retried <- st.Serving.Router.retried + 1;
                  Sim.Engine.sleep e 200_000;
                  attempt (tries - 1)
                end
                else reply
              in
              let reply = attempt 3 in
              st.Serving.Router.inflight <- st.Serving.Router.inflight - 1;
              decr open_reqs;
              if Mu.Smr.is_retryable reply then begin
                st.Serving.Router.shed <- st.Serving.Router.shed + 1;
                state.Ivec.a.(idx) <- 2;
                incr shed
              end
              else begin
                if not (Bytes.equal reply body) then echo_ok := false;
                st.Serving.Router.committed <- st.Serving.Router.committed + 1;
                state.Ivec.a.(idx) <- 1;
                incr answered;
                let fin = Sim.Engine.now e in
                finished ctx idx ~due ~fin;
                Ivec.push lat (fin - due)
              end)
        end
      in
      let rec generate () =
        let now = Sim.Engine.now e in
        if now < t_end then begin
          let a = Serving.Population.next population ~now in
          let due = now + a.Serving.Population.gap_ns in
          Sim.Engine.sleep e a.Serving.Population.gap_ns;
          if Sim.Engine.now e < t_end then begin
            late := !late + (Sim.Engine.now e - due);
            issue a ~due
          end;
          generate ()
        end
      in
      generate ();
      let grace_end = Sim.Engine.now e + 20_000_000 in
      while !open_reqs > 0 && Sim.Engine.now e < grace_end do
        Sim.Engine.sleep e 100_000
      done;
      for i = 0 to shards - 1 do
        tally_proposes ctx (Mu.Smr.replicas (Mu.Sharded.shard s i))
      done;
      Mu.Sharded.stop s;
      let issued = state.Ivec.n in
      let count v = Array.fold_left (fun acc x -> if x = v then acc + 1 else acc) 0 (Ivec.to_array state) in
      let per f = List.init shards (fun i -> f (Serving.Router.stats router i)) in
      let sum f = List.fold_left ( + ) 0 (per f) in
      let pending = count 0 in
      let conserved =
        count 1 = !answered && count 2 = !shed
        && !answered + !shed + pending = issued
        && sum (fun st -> st.Serving.Router.committed) = !answered
        && sum (fun st -> st.Serving.Router.shed) = !shed
        && sum (fun st -> st.Serving.Router.inflight) = pending
        && Serving.Population.arrivals population >= issued
        && Serving.Population.arrivals population <= issued + 1
      in
      {
        c_issued = issued;
        c_done = !answered;
        c_shed = !shed;
        c_unanswered = pending;
        c_lat = lat_of ~missed:(issued - !answered) (Ivec.to_array lat);
        c_retries = sum (fun st -> st.Serving.Router.retried);
        c_inflight_max =
          List.fold_left max 0 (per (fun st -> st.Serving.Router.max_inflight));
        c_gen_late = !late;
        c_conserved = conserved;
        c_echo_ok = !echo_ok;
      })

let slo_pass c = pct_ns c.c_lat 99. <= float_of_int slo_ns

(* Rates are probed on a grid of [step] req/µs. Bisection keeps [lo]
   passing and [hi] failing until they are adjacent, so the answer
   passes the SLO and the next step up does not. 0 when even the lowest
   grid rate fails; the top of the grid when it passes. *)
let slo_step = 0.25
let slo_grid = 64

let max_rate_slo ~probe =
  let rate i = float_of_int i *. slo_step in
  let pass i = slo_pass (probe (rate i)) in
  if not (pass 1) then 0.
  else if pass slo_grid then rate slo_grid
  else begin
    let lo = ref 1 and hi = ref slo_grid in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if pass mid then lo := mid else hi := mid
    done;
    rate !lo
  end

let rates = [ ("low", 1.); ("", 4.); ("high", 8.) ]

let serve_open ctx ~seed ~duration ~bisect =
  let cells =
    List.mapi
      (fun k (name, rate) -> (name, serve_cell ctx ~seed:((seed * 8) + k) ~rate ~duration))
      rates
  in
  let probes = ref [] in
  let slo =
    if bisect then
      max_rate_slo ~probe:(fun rate ->
          let c = serve_cell ctx ~seed ~rate ~duration in
          probes := c :: !probes;
          c)
    else 0.
  in
  let all = List.map snd cells @ !probes in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 all in
  let mid = List.assoc "" cells in
  {
    attempted = mid.c_issued;
    failed = mid.c_issued - mid.c_done;
    committed = sum (fun c -> c.c_done);
    lats = List.map (fun (name, c) -> (name, c.c_lat)) cells;
    counts =
      [
        ("slo", slo);
        ("issued", float_of_int (sum (fun c -> c.c_issued)));
        ("shed", float_of_int (sum (fun c -> c.c_shed)));
        ("unanswered", float_of_int (sum (fun c -> c.c_unanswered)));
        ("retries", float_of_int (sum (fun c -> c.c_retries)));
        ("gen_late_ns", float_of_int (sum (fun c -> c.c_gen_late)));
        ("inflight_max", float_of_int (List.fold_left (fun m c -> max m c.c_inflight_max) 0 all));
      ];
    checks =
      [
        ("serve-open conserves arrivals (completed + shed + unanswered)", fun () ->
          List.for_all (fun c -> c.c_conserved) all);
        ("serve-open echo replies equal their requests", fun () ->
          List.for_all (fun c -> c.c_echo_ok) all);
      ];
  }

(* ------------------------------------------------------------------ *)
(* failover-open                                                        *)
(* ------------------------------------------------------------------ *)

(* Batching lets the leader drain the backlog an outage leaves behind;
   without it the queue outlives the 2 ms client retry and the resent
   duplicates keep it growing. *)
let fo_cfg = { Mu.Config.default with Mu.Config.durable_state = true; max_batch = 8 }
let fo_gap = 5_000
let fo_keys = 10_000
let fo_stable = 2_500_000
let fo_restart_after = 2_000_000
let fo_settle_limit = 100_000_000

let fo_setup ~seed =
  run_sim untraced ~seed (fun e ->
      let smr = Mu.Smr.create e cal fo_cfg ~make_app:(fun _ -> Apps.Kv_store.smr_app ()) in
      Mu.Smr.start smr;
      Mu.Smr.wait_live smr;
      Mu.Smr.stop smr)

let settled smr =
  Mu.Smr.restarts_in_flight smr = 0
  &&
  match Mu.Smr.serving_leader smr with
  | Some r -> not r.Mu.Replica.need_new_followers
  | None -> false

type fo_op = {
  cmd : Apps.Kv_store.command;
  due : int;
  mutable fin : int;  (** -1 while unanswered. *)
  mutable reply : Apps.Kv_store.reply option;
}

type fo_round = {
  ops : fo_op array;
  unavail : int;  (** Fault → first reply after it; [max_int] if none. *)
  detect : int option;  (** Fault → next "leader" instant (traced). *)
  elections : int;  (** Leader instants between fault and settled (traced). *)
  spurious : int;  (** Leader instants after live, outside the fault (traced). *)
  rejoins : Mu.Smr.rejoin list;
  degraded : int;
  stalled : bool;
  violations : Mu.Invariants.violation list;
}

let history ops =
  Array.to_list ops
  |> List.mapi (fun i o ->
         let key, kind =
           match o.cmd, o.reply with
           | Apps.Kv_store.Put { key; value }, _ -> (key, Workload.Linearizability.Write value)
           | Apps.Kv_store.Get { key }, Some (Apps.Kv_store.Value v) ->
             (key, Workload.Linearizability.Read (Some v))
           | Apps.Kv_store.Get { key }, _ -> (key, Workload.Linearizability.Read None)
           | Apps.Kv_store.Delete { key }, _ -> (key, Workload.Linearizability.Erase)
         in
         {
           Workload.Linearizability.proc = i;
           invoked = o.due;
           responded = (if o.fin < 0 then max_int else o.fin);
           key;
           kind;
         })

let reply_fits o =
  o.fin < 0
  ||
  match o.cmd, o.reply with
  | Apps.Kv_store.Put _, Some Apps.Kv_store.Stored -> true
  | Apps.Kv_store.Get _, Some (Apps.Kv_store.Value _ | Apps.Kv_store.Not_found) -> true
  | _ -> false

(* One fault on a fresh durable cluster under fixed-rate open-loop
   traffic: stop the leader's process, restart it with
   [Mu.Smr.restart_replica] after [fo_restart_after], and wait for its
   rejoin at log parity and a settled leader (the restarted lowest id
   takes leadership back). Every wait is bounded: a cluster that does
   not settle ends the round and fails its check. *)
let failover_round ctx ~seed =
  run_sim ctx ~seed (fun e ->
      let rng = Sim.Rng.split (Sim.Engine.rng e) in
      let smr = Mu.Smr.create e cal fo_cfg ~make_app:(fun _ -> Apps.Kv_store.smr_app ()) in
      Mu.Smr.start smr;
      Mu.Smr.wait_live smr;
      let live = Sim.Engine.now e in
      let ops = ref [] and nops = ref 0 and open_ops = ref 0 in
      let generating = ref true in
      (* One request every [fo_gap] ns on a uniform key. Every request
         is its own client, so the store's dedup makes Mu's client
         retries exactly-once. *)
      Sim.Engine.spawn e ~name:"fo-generator" (fun () ->
          while !generating do
            let i = !nops in
            incr nops;
            let key = Printf.sprintf "key-%08d" (Sim.Rng.int rng fo_keys) in
            let cmd =
              if Sim.Rng.bool rng then Apps.Kv_store.Get { key }
              else Apps.Kv_store.Put { key; value = Printf.sprintf "v%d" i }
            in
            let op = { cmd; due = Sim.Engine.now e; fin = -1; reply = None } in
            ops := op :: !ops;
            incr open_ops;
            Sim.Engine.spawn e ~name:"fo-req" (fun () ->
                let payload = Apps.Kv_store.encode_command ~client:(i + 2) ~req_id:1 cmd in
                submitting ctx i;
                let ivar = Mu.Smr.submit_async smr payload in
                submitted ctx;
                let reply = Sim.Engine.Ivar.read ivar in
                op.fin <- Sim.Engine.now e;
                op.reply <- Apps.Kv_store.decode_reply reply;
                decr open_ops;
                finished ctx i ~due:op.due ~fin:op.fin);
            Sim.Engine.sleep e fo_gap
          done);
      let stalled = ref false in
      let settle pred =
        let deadline = Sim.Engine.now e + fo_settle_limit in
        wait_until e (fun () -> pred () || Sim.Engine.now e >= deadline);
        if not (pred ()) then stalled := true
      in
      Sim.Engine.sleep e fo_stable;
      let leader = Option.get (Mu.Smr.serving_leader smr) in
      let t_fail = Sim.Engine.now e in
      Sim.Host.stop_process leader.Mu.Replica.host;
      Sim.Engine.sleep e fo_restart_after;
      Mu.Smr.restart_replica smr ~id:leader.Mu.Replica.id;
      settle (fun () -> Mu.Smr.rejoins smr <> [] && settled smr);
      let t_settled = Sim.Engine.now e in
      Sim.Engine.sleep e fo_stable;
      generating := false;
      settle (fun () -> !open_ops = 0);
      let violations = Mu.Invariants.check_all (Mu.Smr.replicas smr) in
      let rejoins = Mu.Smr.rejoins smr and degraded = Mu.Smr.degraded_total_ns smr in
      tally_proposes ctx (Mu.Smr.replicas smr);
      Mu.Smr.stop smr;
      let ops = Array.of_list (List.rev !ops) in
      let first_reply =
        Array.fold_left (fun m o -> if o.fin > t_fail then min m o.fin else m) max_int ops
      in
      let leaders = leaders_since ctx live in
      let in_fault l = l >= t_fail && l <= t_settled in
      {
        ops;
        unavail = (if first_reply = max_int then max_int else first_reply - t_fail);
        detect = Option.map (fun l -> l - t_fail) (List.find_opt (fun l -> l > t_fail) leaders);
        elections = List.length (List.filter in_fault leaders);
        spurious = List.length (List.filter (fun l -> not (in_fault l)) leaders);
        rejoins;
        degraded;
        stalled = !stalled;
        violations;
      })

let failover_open ctx ~seed ~rounds =
  let rs = List.init rounds (fun i -> failover_round ctx ~seed:((seed * 1000) + i)) in
  let ops = Array.concat (List.map (fun r -> r.ops) rs) in
  let answered = List.filter (fun o -> o.fin >= 0) (Array.to_list ops) in
  let missed = Array.length ops - List.length answered in
  let ints f = Array.of_list (List.filter_map f rs) in
  let all_rejoins = List.concat_map (fun r -> r.rejoins) rs in
  let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 rs) in
  {
    attempted = Array.length ops;
    failed = missed;
    committed = List.length answered;
    lats =
      [
        ("", lat_of ~missed (Array.of_list (List.map (fun o -> o.fin - o.due) answered)));
        ("unavail", lat_of (ints (fun r -> Some r.unavail)));
        ("detect", lat_of (ints (fun r -> r.detect)));
        ( "switch",
          lat_of
            (ints (fun r ->
                 match r.detect with
                 | Some d when r.unavail < max_int -> Some (r.unavail - d)
                 | _ -> None)) );
        ( "rejoin",
          lat_of
            (Array.of_list
               (List.map (fun j -> j.Mu.Smr.parity_at - j.Mu.Smr.restarted_at) all_rejoins)) );
      ];
    counts =
      [
        ("faults", float_of_int rounds);
        ("elections", sum (fun r -> r.elections));
        ("spurious", sum (fun r -> r.spurious));
        ("rejoins", float_of_int (List.length all_rejoins));
        ( "catchup_entries",
          float_of_int (List.fold_left (fun acc j -> acc + j.Mu.Smr.entries_pulled) 0 all_rejoins) );
        ("degraded_ns", sum (fun r -> r.degraded));
      ];
    checks =
      [
        ("failover-open settled after every fault", fun () ->
          List.for_all (fun r -> not r.stalled) rs);
        ("failover-open every fault was followed by a reply", fun () ->
          List.for_all (fun r -> r.unavail < max_int) rs);
        ("failover-open history is linearizable per key", fun () ->
          List.for_all (fun r -> Workload.Linearizability.check (history r.ops)) rs);
        ("failover-open replies match their command type", fun () ->
          Array.for_all reply_fits ops);
        ("failover-open Mu.Invariants.check_all is empty", fun () ->
          List.for_all (fun r -> r.violations = []) rs);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Workload table                                                       *)
(* ------------------------------------------------------------------ *)

(* Sizes of one repetition. [reps] repetitions with derived seeds make
   the fixed virtual part; the wall-clock part repeats them. failover-open
   splits its 200 faults over more, shorter repetitions, so that its
   wall-clock median has as many samples as the others. *)
type size = {
  reps : int;
  kv_requests : int;
  serve_ns : int;
  fo_reps : int;
  fo_rounds : int;
  setups : int;
}

let full =
  { reps = 4; kv_requests = 20_000; serve_ns = 3_000_000; fo_reps = 8; fo_rounds = 25;
    setups = 15 }

let small =
  { reps = 2; kv_requests = 500; serve_ns = 200_000; fo_reps = 2; fo_rounds = 3; setups = 2 }

type workload = {
  name : string;
  reps : int;
  setup : seed:int -> unit;  (** Build the cluster and reach live. *)
  rep : ctx -> seed:int -> first:bool -> rep;
}

let workloads (size : size) =
  [
    {
      name = "kv-closed";
      reps = size.reps;
      setup = kv_setup;
      rep = (fun ctx ~seed ~first:_ -> kv_closed ctx ~seed ~requests:size.kv_requests);
    };
    {
      name = "serve-open";
      reps = size.reps;
      setup = serve_setup;
      rep =
        (fun ctx ~seed ~first -> serve_open ctx ~seed ~duration:size.serve_ns ~bisect:first);
    };
    {
      name = "failover-open";
      reps = size.fo_reps;
      setup = fo_setup;
      rep = (fun ctx ~seed ~first:_ -> failover_open ctx ~seed ~rounds:size.fo_rounds);
    };
  ]

let find_workload size name = List.find_opt (fun w -> w.name = name) (workloads size)
let rep_seed seed i = (seed * 1009) + i

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_unit : string; value : float; samples : int option }

let metric ?samples m_name m_unit value = { m_name; m_unit; value; samples }

(* Pool the fixed repetitions: latencies concatenate, counters add. *)
type pooled = {
  p_attempted : int;
  p_failed : int;
  p_committed : int;
  p_lats : (string * lat) list;
  p_counts : (string * float) list;
}

let pool reps =
  let names = match reps with r :: _ -> List.map fst r.lats | [] -> [] in
  let cnames = match reps with r :: _ -> List.map fst r.counts | [] -> [] in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reps in
  {
    p_attempted = sum (fun r -> r.attempted);
    p_failed = sum (fun r -> r.failed);
    p_committed = sum (fun r -> r.committed);
    p_lats =
      List.map (fun n -> (n, lat_concat (List.map (fun r -> List.assoc n r.lats) reps))) names;
    p_counts =
      List.map
        (fun n ->
          let vs = List.map (fun r -> List.assoc n r.counts) reps in
          (n, if n = "inflight_max" then List.fold_left max 0. vs else List.fold_left ( +. ) 0. vs))
        cnames;
  }

let lat_metric name l p =
  let suffix = if p = 50. then "p50" else "p99" in
  metric ~samples:(lat_count l) (Printf.sprintf "lat_%s_us%s" suffix name) "us" (pct_us l p)

let suffixed = function "" -> "" | s -> "." ^ s

(* The virtual end-to-end numbers of a pooled run, primary first. Used
   for the determinism and traced/untraced identity checks. *)
let virtual_metrics p =
  let lat n = List.assoc_opt n p.p_lats in
  let count n = Option.value (List.assoc_opt n p.p_counts) ~default:0. in
  let primary = Option.get (lat "") in
  [ lat_metric "" primary 50.; lat_metric "" primary 99. ]
  @ List.concat_map
      (fun n ->
        match lat n with
        | Some l -> [ lat_metric (suffixed n) l 50.; lat_metric (suffixed n) l 99. ]
        | None -> [ metric (Printf.sprintf "lat_p50_us.%s" n) "us" 0.;
                    metric (Printf.sprintf "lat_p99_us.%s" n) "us" 0. ])
      [ "low"; "high" ]
  @ [
      metric "max_rate_slo_mops" "req/us" (count "slo");
      metric ~samples:p.p_attempted "failed_frac" "ratio"
        (float_of_int p.p_failed /. float_of_int (max 1 p.p_attempted));
    ]
  @
  match lat "unavail" with
  | Some u ->
    [ metric ~samples:(lat_count u) "unavail_p50_us" "us" (pct_us u 50.);
      metric ~samples:(lat_count u) "unavail_p95_us" "us" (pct_us u 95.) ]
  | None -> [ metric "unavail_p50_us" "us" 0.; metric "unavail_p95_us" "us" 0. ]

let render_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "1e18"

let fingerprint ms =
  String.concat ";" (List.map (fun m -> m.m_name ^ "=" ^ render_value m.value) ms)

(* ------------------------------------------------------------------ *)
(* Runs                                                                 *)
(* ------------------------------------------------------------------ *)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let peak_rss_mb () =
  let from_proc =
    try
      let ic = open_in "/proc/self/status" in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                  Some (float_of_int kb /. 1024.))
            | _ -> go ()
            | exception End_of_file -> None
          in
          go ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some v -> v
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Host-speed probe: a fixed mix of allocation, hashing and queueing in
   benchmark-owned code only, timed before and after every repetition.
   [sim_req_per_s] is scaled by [probe time /. probe_nominal_s] and
   [setup_s] by its inverse, so a host that is busy or slow for a while
   does not read as a change in the simulator. A change to the repository cannot speed the probe up. *)
let probe_nominal_s = 0.02

let host_probe () =
  let t0 = wall () in
  let h = Hashtbl.create 1024 and q = Queue.create () and acc = ref 0 in
  for i = 1 to 60_000 do
    let k = (i * 2654435761) land 0xFFFF in
    (match Hashtbl.find_opt h k with
    | Some (a, b) -> Hashtbl.replace h k (i, a + b)
    | None -> Hashtbl.replace h k (i, 0));
    Queue.push (k, [ i; k ]) q;
    if Queue.length q > 256 then
      match Queue.pop q with _, a :: _ -> acc := !acc + a | _, [] -> ()
  done;
  ignore (Sys.opaque_identity !acc);
  wall () -. t0

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  checks : (string * bool) list;
  notes : string list;
}

let run_checks reps =
  let t0 = wall () in
  let results =
    List.concat_map (fun (r : rep) -> List.map (fun (name, f) -> (name, f ())) r.checks) reps
  in
  (* One line per check name: it passes only if every repetition passed. *)
  let names = List.sort_uniq compare (List.map fst results) in
  let merged =
    List.map (fun n -> (n, List.for_all (fun (m, ok) -> m <> n || ok) results)) names
  in
  (merged, wall () -. t0)

let fixed_reps w ctx ~seed =
  List.init w.reps (fun i -> w.rep ctx ~seed:(rep_seed seed i) ~first:(i = 0))

(* End-to-end run, tracing off. *)
let run_untraced size w ~seed ~seconds =
  (* Each set-up is scaled by a probe taken just before it, like the
     repetitions. The first probe and the first set-up of a process also
     grow its heap and are discarded. *)
  ignore (host_probe ());
  w.setup ~seed:(rep_seed seed (-1));
  let setups =
    List.init size.setups (fun i ->
        let pr = host_probe () in
        let t0 = wall () in
        w.setup ~seed:(rep_seed seed i);
        let dt = wall () -. t0 in
        (dt, dt *. probe_nominal_s /. pr))
  in
  let t_start = wall () in
  let timed i =
    Gc.compact ();
    let p0 = host_probe () in
    let t0 = wall () in
    let r = w.rep untraced ~seed:(rep_seed seed (i mod w.reps)) ~first:(i mod w.reps = 0) in
    let dt = wall () -. t0 in
    Gc.compact ();
    (r, dt, (p0 +. host_probe ()) /. 2.)
  in
  let first = List.init w.reps timed in
  let reps = List.map (fun (r, _, _) -> r) first in
  (* Memory of set-up plus the fixed work; the wall-clock repeats that
     follow would only add heap growth that depends on the budget. *)
  let rss = peak_rss_mb () in
  (* Repeat the fixed repetitions for the wall-clock figure until the
     budget is spent; each repeat must reproduce its virtual result. *)
  let raw = ref [] and rates = ref [] and probes = ref [] in
  let record ((r : rep), dt, pr) =
    raw := (float_of_int r.committed /. dt) :: !raw;
    rates := (float_of_int r.committed /. dt *. pr /. probe_nominal_s) :: !rates;
    probes := pr :: !probes
  in
  List.iter record first;
  let deterministic = ref true and i = ref w.reps in
  while wall () -. t_start < seconds do
    let ((r, _, _) as t) = timed !i in
    let base = List.nth reps (!i mod w.reps) in
    if fingerprint (virtual_metrics (pool [ r ])) <> fingerprint (virtual_metrics (pool [ base ]))
    then deterministic := false;
    record t;
    incr i
  done;
  let rates = !rates in
  let checks, check_s = run_checks reps in
  let checks = checks @ [ ("repeated seeds reproduce their virtual metrics", !deterministic) ] in
  let p = pool reps in
  let vm = virtual_metrics p in
  let primary = List.assoc "" p.p_lats in
  let e2e =
    [
      List.find (fun m -> m.m_name = "lat_p50_us") vm;
      List.find (fun m -> m.m_name = "lat_p99_us") vm;
      metric ~samples:(List.length rates) "sim_req_per_s" "1/s" (median rates);
      metric ~samples:(List.length setups) "setup_s" "s" (median (List.map snd setups));
      metric "peak_rss_mb" "MiB" rss;
    ]
  in
  {
    correct = List.for_all snd checks;
    attempted = p.p_attempted;
    failed = p.p_failed;
    metrics = e2e;
    checks;
    notes =
      (Printf.sprintf "tail of %d samples: p%g has %d beyond it" (lat_count primary)
         (tail_pct primary) (beyond primary (tail_pct primary))
      :: Printf.sprintf "check.wall_s %.3f" check_s
      :: Printf.sprintf "unscaled sim_req_per_s %.1f, setup_s %.5f; probe %.2f ms (nominal %.2f ms)"
           (median !raw) (median (List.map fst setups)) (median !probes *. 1e3)
           (probe_nominal_s *. 1e3)
      :: List.map
           (fun m ->
             Printf.sprintf "%s %s %s%s" m.m_name (render_value m.value) m.m_unit
               (match m.samples with Some n -> Printf.sprintf " (n=%d)" n | None -> ""))
           vm);
  }

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* Per-layer run: the fixed repetitions untraced, then traced. *)
let run_traced w ~seed ~seconds =
  let t_start = wall () in
  let words () = Gc.minor_words () in
  Gc.compact ();
  let w0 = words () and t0 = wall () in
  let plain = fixed_reps w untraced ~seed in
  let plain_wall = wall () -. t0 and plain_words = words () -. w0 in
  let tap = tap_create () in
  let ctx = { tap = Some tap } in
  Gc.compact ();
  let t1 = wall () in
  let traced = fixed_reps w ctx ~seed in
  let traced_wall = wall () -. t1 in
  let checks, check_s = run_checks plain in
  (* More untraced/traced pairs of the first repetition, for a steadier
     overhead ratio, while the budget lasts. *)
  let overheads = ref [ traced_wall /. plain_wall ] in
  while wall () -. t_start < seconds do
    Gc.compact ();
    let a = wall () in
    ignore (w.rep untraced ~seed:(rep_seed seed 0) ~first:true);
    let plain = wall () -. a in
    Gc.compact ();
    let b = wall () in
    ignore (w.rep { tap = Some (tap_create ()) } ~seed:(rep_seed seed 0) ~first:true);
    overheads := ((wall () -. b) /. plain) :: !overheads
  done;
  let p = pool plain and pt = pool traced in
  let vm = virtual_metrics p in
  let same = fingerprint vm = fingerprint (virtual_metrics pt) in
  let committed = fi p.p_committed in
  (* Layer counters come from the traced repetitions; their virtual
     end-to-end numbers equal the untraced ones (checked below). *)
  let count n = Option.value (List.assoc_opt n pt.p_counts) ~default:0. in
  let lat n = List.assoc_opt n pt.p_lats in
  let p_or0 l q = if lat_count l = 0 then 0. else pct_us l q in
  let lat_p n q = match lat n with Some l -> p_or0 l q | None -> 0. in
  let ops, sampled, qwall =
    List.fold_left
      (fun (o, s, q) sc ->
        let o', s', q' = Sim.Engine.selfcost_queue sc in
        (o + o', s + s', q +. q'))
      (0, 0, 0.) tap.selfcosts
  in
  let events = fi tap.events in
  let queue_ns = if sampled = 0 then 0. else qwall *. fi ops /. fi sampled /. events *. 1e9 in
  (* The classes account for the wall time inside engine runs; the
     remainder, outside them, is the benchmark's own and goes to
     "scheduler". *)
  let outside = traced_wall -. Array.fold_left ( +. ) 0. tap.class_wall in
  tap.class_wall.(scheduler_class) <- tap.class_wall.(scheduler_class) +. outside;
  let vus v = lat_of (Ivec.to_array v) in
  let q = vus tap.queue and rp = vus tap.replicate and ry = vus tap.reply in
  let faults = count "faults" in
  let issued = count "issued" in
  let vm_get n = (List.find (fun m -> m.m_name = n) vm).value in
  let layer =
    [
      metric "sim.events_per_req" "count" (ratio events committed);
      metric "sim.fibers_per_req" "count" (ratio (fi tap.fibers) committed);
      metric "sim.minor_words_per_req" "words" (ratio plain_words committed);
      metric "sim.queue_ns_per_event" "ns" queue_ns;
      metric "sim.dispatch_ns_per_event" "ns" ((plain_wall /. events *. 1e9) -. queue_ns);
    ]
    @ Array.to_list
        (Array.mapi
           (fun i c -> metric ("sim.wall_share." ^ c) "ratio" (tap.class_wall.(i) /. traced_wall))
           classes)
    @ [
        metric "rdma.wr_per_commit" "count" (ratio (fi tap.wrs) committed);
        metric ~samples:tap.perm_us.Ivec.n "rdma.perm_switch_us.p50" "us"
          (p_or0 (vus tap.perm_us) 50.);
        metric "rdma.perm_slow_path_frac" "ratio"
          (ratio (fi tap.perm_slow) (fi tap.perm_switches));
        metric ~samples:(lat_count q) "mu.queue_us.p50" "us" (p_or0 q 50.);
        metric ~samples:(lat_count q) "mu.queue_us.tail" "us" (p_or0 q (tail_pct q));
        metric ~samples:(lat_count rp) "mu.replicate_us.p50" "us" (p_or0 rp 50.);
        metric ~samples:(lat_count rp) "mu.replicate_us.tail" "us" (p_or0 rp (tail_pct rp));
        metric ~samples:(lat_count ry) "mu.reply_us.p50" "us" (p_or0 ry 50.);
        metric "mu.reqs_per_slot" "count" (ratio (fi tap.slot_reqs) (fi tap.slots));
        metric "mu.slots_per_write" "count" (ratio (fi tap.slots) tap.groups);
        metric "mu.commit_ratio" "ratio" (ratio (fi tap.commits) (fi tap.proposes));
        metric "mu.detect_us.p50" "us" (lat_p "detect" 50.);
        metric "mu.switch_us.p50" "us" (lat_p "switch" 50.);
        metric "mu.elections_per_fault" "count" (ratio (count "elections") faults);
        metric "mu.spurious_elections" "count" (count "spurious");
        metric "apps.transport_us.p50" "us" (lat_p "transport" 50.);
        metric "apps.unreplicated_p50_us" "us" (lat_p "unreplicated" 50.);
        metric "apps.apply_ns" "ns" (ratio (tap.apply_wall *. 1e9) (fi tap.applies));
        metric "serving.shed_frac" "ratio" (ratio (count "shed") issued);
        metric "serving.retries_per_req" "count" (ratio (count "retries") issued);
        metric "serving.inflight_max" "count" (count "inflight_max");
        metric "serving.gen_late_us" "us" (count "gen_late_ns" /. 1000.);
        metric "recovery.rejoin_us.p50" "us" (lat_p "rejoin" 50.);
        metric "recovery.catchup_entries_per_rejoin" "count"
          (ratio (count "catchup_entries") (count "rejoins"));
        metric "recovery.degraded_us" "us" (ratio (count "degraded_ns") faults /. 1000.);
        metric "check.wall_s" "s" check_s;
        metric ~samples:(List.length !overheads) "obs.trace_overhead_x" "x" (median !overheads);
      ]
    @ List.map
        (fun n -> metric n "us" (vm_get n))
        [ "lat_p50_us.low"; "lat_p99_us.low"; "lat_p50_us.high"; "lat_p99_us.high";
          "unavail_p50_us"; "unavail_p95_us" ]
    @ [
        metric "max_rate_slo_mops" "req/us" (vm_get "max_rate_slo_mops");
        metric "failed_frac" "ratio" (vm_get "failed_frac");
      ]
  in
  let checks =
    checks
    @ [
        ("traced and untraced runs give identical virtual metrics", same);
        ("phase split sums exactly to each request's latency", tap.split_bad = 0);
        ("per-class wall times fit in the traced wall time", outside >= 0.);
      ]
  in
  {
    correct = List.for_all snd checks;
    attempted = p.p_attempted;
    failed = p.p_failed;
    metrics = layer;
    checks;
    notes =
      [
        Printf.sprintf "phase split over %d requests (%d inconsistent)" tap.split_requests
          tap.split_bad;
        Printf.sprintf "mu.queue_us.tail is p%g, mu.replicate_us.tail is p%g" (tail_pct q)
          (tail_pct rp);
      ];
  }

let json_of_outcome o =
  let metric m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (render_value m.value) m.m_unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct (max 1 o.attempted) o.failed
    (String.concat ", " (List.map metric o.metrics))

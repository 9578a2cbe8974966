let log_src = Logs.Src.create "mu.election" ~doc:"Leader election (pull-score)"

module L = (val Logs.src_log log_src : Logs.LOG)

let read_own_heartbeat t = Rdma.Mr.get_int t.Replica.bg_mr ~off:Replica.bg_hb_offset

let is_alive t id =
  if id = t.Replica.id then true
  else Option.value (Replica.Itbl.find_opt t.Replica.alive id) ~default:true

let clamp c v =
  let lo = c.Sim.Calibration.score_min and hi = c.Sim.Calibration.score_max in
  if v < lo then lo else if v > hi then hi else v

(* Flip this replica's verdict on [pid]: the alive table, a trace instant
   named [name], and the provenance election span. *)
let flip t pid ~score verdict name =
  Replica.Itbl.replace t.Replica.alive pid verdict;
  let e = Replica.engine t in
  if Sim.Engine.traced e then
    Sim.Engine.trace_instant e ~cat:"mu" ~pid:t.Replica.id
      ~args:[ ("peer", string_of_int pid); ("score", string_of_int score) ]
      name;
  (* Provenance: suspecting the replica we believed was leader opens an
     election span — closed by the role fiber on takeover, or here when
     the suspicion turns out to be a false alarm. *)
  if verdict = false && pid = t.Replica.leader_estimate && t.Replica.election_span = 0
  then
    t.Replica.election_span <-
      Sim.Engine.span_open e ~pid:t.Replica.id ~parent:0
        ~args:[ ("suspect", string_of_int pid) ]
        "election"
  else if verdict && t.Replica.election_span <> 0 && pid < t.Replica.id then begin
    Sim.Engine.span_close e ~pid:t.Replica.id
      ~args:[ ("outcome", "false_alarm") ]
      t.Replica.election_span;
    t.Replica.election_span <- 0
  end

let readmit t pid =
  let score = (Replica.cal t).Sim.Calibration.score_max in
  Replica.Itbl.replace t.Replica.scores pid score;
  if not (is_alive t pid) then flip t pid ~score true "recover"

(* One monitor fiber per peer id: read its counter, score it, update the
   alive table with hysteresis. The peer record is re-resolved by id on
   every round — a rebooted peer reappears under the same id with fresh
   QPs, and the monitor must follow the new connection rather than poll a
   dead one forever. *)
let monitor_fiber t pid =
  let c = Replica.cal t in
  Replica.Itbl.replace t.Replica.scores pid c.Sim.Calibration.score_max;
  Replica.Itbl.replace t.Replica.alive pid true;
  let buf = Bytes.create 8 in
  let rec loop () =
    if t.Replica.stop || t.Replica.removed then ()
    else
    match Replica.peer_opt t pid with
    | None -> () (* peer was removed from the group *)
    | Some p ->
      Sim.Host.idle t.Replica.host c.Sim.Calibration.fd_read_interval;
      let advanced =
        if Rdma.Qp.state p.Replica.fd_qp <> Rdma.Verbs.Rts then false
        else begin
          t.Replica.metrics.Metrics.fd_reads <- t.Replica.metrics.Metrics.fd_reads + 1;
          Rdma.Qp.post_read p.Replica.fd_qp ~wr_id:(Replica.fresh_wr_id t) ~dst:buf
            ~dst_off:0 ~len:8 ~mr:p.Replica.remote_bg_mr ~src_off:Replica.bg_hb_offset;
          let wc = Rdma.Cq.await p.Replica.fd_cq in
          match wc.Rdma.Verbs.status with
          | Rdma.Verbs.Success ->
            let v = Int64.to_int (Bytes.get_int64_le buf 0) in
            let prev = Replica.Itbl.find_opt t.Replica.last_hb p.Replica.pid in
            Replica.Itbl.replace t.Replica.last_hb p.Replica.pid v;
            (match prev with None -> true | Some v0 -> v > v0)
          | Rdma.Verbs.Remote_access_error | Rdma.Verbs.Operation_timeout
          | Rdma.Verbs.Flushed ->
            false
        end
      in
      let score =
        Option.value (Replica.Itbl.find_opt t.Replica.scores p.Replica.pid)
          ~default:c.Sim.Calibration.score_max
      in
      let score = clamp c (if advanced then score + 1 else score - 1) in
      Replica.Itbl.replace t.Replica.scores p.Replica.pid score;
      Metrics.score t.Replica.metrics ~peer:p.Replica.pid score;
      let alive = is_alive t p.Replica.pid in
      let dead =
        if alive then score < c.Sim.Calibration.score_fail
        else score <= c.Sim.Calibration.score_recover
      in
      if alive && dead then flip t p.Replica.pid ~score false "suspect"
      else if (not alive) && not dead then flip t p.Replica.pid ~score true "recover";
      (* A peer scored dead gets one reconnect of each of its broken pairs
         per round, whichever end broke; its score still recovers only
         through reads (§5.1). A record unwired during the idle holds
         retired pairs, which reconnect leaves alone. *)
      if dead then
        Replica.iter_qps
          (fun qp -> if not (Rdma.Qp.pair_rts qp) then Rdma.Qp.reconnect qp)
          p;
      loop ()
  in
  loop ()

let lowest_alive t =
  List.fold_left
    (fun best p ->
      if is_alive t p.Replica.pid && p.Replica.pid < best then p.Replica.pid else best)
    t.Replica.id t.Replica.peers

let role_fiber t ~on_role_change =
  let c = Replica.cal t in
  let rec loop () =
    if t.Replica.stop || t.Replica.removed then ()
    else begin
      let leader = lowest_alive t in
      t.Replica.leader_estimate <- leader;
      (match t.Replica.role, leader = t.Replica.id with
      | Replica.Follower, true ->
        Replica.set_role t Replica.Leader;
        t.Replica.role_generation <- t.Replica.role_generation + 1;
        Metrics.election t.Replica.metrics;
        t.Replica.need_new_followers <- true;
        L.info (fun m ->
            m "t=%dns replica %d becomes leader (gen %d)"
              (Sim.Engine.now (Replica.engine t))
              t.Replica.id t.Replica.role_generation);
        let e = Replica.engine t in
        if Sim.Engine.traced e then
          Sim.Engine.trace_instant e ~cat:"mu" ~pid:t.Replica.id
            ~args:[ ("gen", string_of_int t.Replica.role_generation) ]
            "leader";
        if t.Replica.election_span <> 0 then begin
          Sim.Engine.span_close e ~pid:t.Replica.id
            ~args:
              [ ("outcome", "leader");
                ("gen", string_of_int t.Replica.role_generation) ]
            t.Replica.election_span;
          t.Replica.election_span <- 0
        end;
        on_role_change Replica.Leader
      | Replica.Leader, false ->
        Replica.set_role t Replica.Follower;
        t.Replica.role_generation <- t.Replica.role_generation + 1;
        Metrics.demotion t.Replica.metrics;
        L.info (fun m ->
            m "t=%dns replica %d demoted (leader estimate %d)"
              (Sim.Engine.now (Replica.engine t))
              t.Replica.id leader);
        let e = Replica.engine t in
        if Sim.Engine.traced e then
          Sim.Engine.trace_instant e ~cat:"mu" ~pid:t.Replica.id
            ~args:[ ("leader", string_of_int leader) ]
            "demoted";
        on_role_change Replica.Follower
      | Replica.Leader, true | Replica.Follower, false -> ());
      Sim.Host.idle t.Replica.host c.Sim.Calibration.fd_read_interval;
      loop ()
    end
  in
  loop ()

let start t ~on_role_change =
  Replica.start_heartbeat t;
  List.iter
    (fun p ->
      Sim.Host.spawn t.Replica.host
        ~name:(Printf.sprintf "monitor-%d" p.Replica.pid)
        (fun () -> monitor_fiber t p.Replica.pid))
    t.Replica.peers;
  Sim.Host.spawn t.Replica.host ~name:"role" (fun () -> role_fiber t ~on_role_change)

(* Follower log-poll period (ns); a request waits U(0, interval) before
   the follower notices it. *)
let follower_poll_interval = 1_000

(* Follower CPU cost to validate and ack one entry. *)
let follower_process = 3_100
let leader_poll = 400

(* Follower buffer layout: request entry at 4096 (seq header + payload). *)
let req_off = 4096

(* APUS: the leader writes the request into each follower's log with a
   one-sided Write, but the follower CPU is on the critical path — it
   polls its log, processes the entry, and acknowledges with a two-sided
   Send that the leader receives (§8: "APUS requires active participation
   from the follower replicas during the replication protocol"). *)
let create (c : Common.t) =
  let n = Common.n c in
  let followers = List.init (n - 1) (fun i -> i + 1) in
  let wr = ref 1_000_000 in
  (* Follower fibers: wake on the request write (the doorbell captures the
     sequence number at arrival so a busy follower pays its full poll +
     processing cost for each entry), then Send the ack. *)
  List.iter
    (fun j ->
      let doorbell = Sim.Engine.Chan.create c.Common.engine in
      let mr = c.Common.mrs.(j) in
      Rdma.Mr.watch mr ~off:0 ~len:(Rdma.Mr.size mr) (fun ~off ~len:_ ->
          if off = req_off then Sim.Engine.Chan.send doorbell (Rdma.Mr.get_i64 mr ~off:req_off));
      Sim.Host.spawn c.Common.hosts.(j) ~name:"apus-follower" (fun () ->
          let rng = Sim.Host.rng c.Common.hosts.(j) in
          let last_acked = ref 0L in
          let ack = Bytes.create 8 in
          let rec loop () =
            let seq = Sim.Engine.Chan.recv doorbell in
            if Int64.compare seq !last_acked > 0 then begin
              Sim.Host.cpu c.Common.hosts.(j)
                (Sim.Rng.int rng follower_poll_interval + follower_process);
              last_acked := seq;
              Bytes.set_int64_le ack 0 seq;
              incr wr;
              Rdma.Qp.post_send c.Common.qps.(j).(0) ~wr_id:!wr ~src:ack ~src_off:0 ~len:8;
              Common.await_successes c ~node:j ~count:1
            end;
            loop ()
          in
          loop ()))
    followers;
  (* Leader side: one pre-posted receive buffer per follower, replenished
     as acks are consumed. *)
  let recv_bufs = Array.init n (fun _ -> Bytes.create 8) in
  let post_ack_recv j =
    Rdma.Qp.post_recv c.Common.qps.(0).(j) ~wr_id:j ~dst:recv_bufs.(j) ~dst_off:0 ~max_len:8
  in
  List.iter post_ack_recv followers;
  let seq = ref 0 in
  let needed = Common.majority c - 1 in
  let replicate payload =
    incr seq;
    let t0 = Sim.Engine.now c.Common.engine in
    let entry = Bytes.create (8 + Bytes.length payload) in
    Bytes.set_int64_le entry 0 (Int64.of_int !seq);
    Bytes.blit payload 0 entry 8 (Bytes.length payload);
    List.iter (fun j -> Common.write_to c ~src:0 ~dst:j ~data:entry ~off:req_off) followers;
    (* Collect completions: our request Writes plus ack Receives; a
       majority of current-sequence acks completes the round. *)
    let acks = ref 0 and writes = ref 0 in
    while !acks < needed do
      let wc = Rdma.Cq.await c.Common.cqs.(0) in
      match wc.Rdma.Verbs.status, wc.Rdma.Verbs.kind with
      | Rdma.Verbs.Success, `Recv ->
        let j = wc.Rdma.Verbs.wr_id in
        let s = Bytes.get_int64_le recv_bufs.(j) 0 in
        post_ack_recv j;
        if Int64.to_int s = !seq then incr acks
      | Rdma.Verbs.Success, `Write -> incr writes
      | Rdma.Verbs.Success, (`Read | `Send) -> ()
      | st, _ -> failwith (Fmt.str "APUS: operation failed: %a" Rdma.Verbs.pp_wc_status st)
    done;
    Sim.Host.cpu c.Common.hosts.(0) leader_poll;
    let dt = Sim.Engine.now c.Common.engine - t0 in
    (* Drain this round's leftover write completions so the next round's
       accounting starts clean. *)
    while !writes < List.length followers do
      let wc = Rdma.Cq.await c.Common.cqs.(0) in
      match wc.Rdma.Verbs.status, wc.Rdma.Verbs.kind with
      | Rdma.Verbs.Success, `Write -> incr writes
      | Rdma.Verbs.Success, `Recv -> post_ack_recv wc.Rdma.Verbs.wr_id
      | Rdma.Verbs.Success, (`Read | `Send) -> ()
      | st, _ -> failwith (Fmt.str "APUS: operation failed: %a" Rdma.Verbs.pp_wc_status st)
    done;
    dt
  in
  Common.with_telemetry c { Common.name = "APUS"; replicate }

exception Aborted of string

let log_src = Logs.Src.create "mu.replication" ~doc:"Replication plane"

module L = (val Logs.src_log log_src : Logs.LOG)

let abort t reason =
  L.debug (fun m ->
      m "t=%dns replica %d aborts propose: %s"
        (Sim.Engine.now (Replica.engine t))
        t.Replica.id reason);
  t.Replica.metrics.Metrics.aborts <- t.Replica.metrics.Metrics.aborts + 1;
  t.Replica.need_new_followers <- true;
  t.Replica.skip_prepare <- false;
  (* Resetting [inflight] also forgets any recycler writes still in
     flight; their completions will be discarded as stale, so the
     outstanding count restarts from zero with the next leadership. *)
  Replica.Itbl.reset t.Replica.inflight;
  t.Replica.recycler_outstanding <- 0;
  raise (Aborted reason)

let confirmed_peers t =
  List.filter_map (fun id -> Replica.peer_opt t id) t.Replica.confirmed

let remote_majority t = Replica.majority t - 1

(* The leader's writes to its own log are plain stores, not fenced by QP
   permissions; awareness of revocation (Appendix A.1: "a leader cannot
   lose permission between two of its writes ... without being aware")
   must therefore be checked explicitly against the local permission
   module before every local log mutation in the leader path. The
   permission manager moves [perm_holder] off this replica the instant it
   grants a rising leader, so a deposed leader aborts here instead of
   clobbering a decided entry in its own log. *)
let check_own_permission t =
  if t.Replica.perm_holder <> Some t.Replica.id then
    abort t "lost write permission on own log"

(* --- completion bookkeeping ------------------------------------------- *)

let post_tracked t (p : Replica.peer) ~tag ~post =
  let wr = Replica.fresh_wr_id t in
  Replica.Itbl.replace t.Replica.inflight wr (p.Replica.pid, tag);
  post wr

(* Completions of the recycler's fire-and-forget zeroing writes arrive on
   the shared replication CQ and are reaped here, on the propose path:
   the outstanding count comes down and error statuses — permission
   revocation racing a zeroing write — become visible in metrics and
   telemetry instead of vanishing. (The error still aborts the propose
   below: a failed write to a confirmed follower means this leader lost
   its standing, whatever plane posted it.) *)
let note_recycler t ~pid ~tag ~status =
  if tag = Replica.recycler_tag then begin
    t.Replica.recycler_outstanding <- Int.max 0 (t.Replica.recycler_outstanding - 1);
    match status with
    | Rdma.Verbs.Success -> ()
    | status ->
      Metrics.recycler_error t.Replica.metrics;
      let e = Replica.engine t in
      if Sim.Engine.traced e then
        Sim.Engine.trace_instant e ~cat:"mu" ~pid:t.Replica.id
          ~args:
            [
              ("peer", string_of_int pid);
              ("status", Fmt.str "%a" Rdma.Verbs.pp_wc_status status);
            ]
          "recycler_write_failed"
  end

let drain_completion ?timeout t =
  let wc =
    match timeout with
    | None -> Some (Rdma.Cq.await t.Replica.repl_cq)
    | Some ns -> Rdma.Cq.await_timeout t.Replica.repl_cq ns
  in
  match wc with
  | None -> None
  | Some wc -> (
    match Replica.Itbl.find_opt t.Replica.inflight wc.Rdma.Verbs.wr_id with
    | None -> None (* stale: belongs to an aborted round *)
    | Some (pid, tg) -> (
      Replica.Itbl.remove t.Replica.inflight wc.Rdma.Verbs.wr_id;
      note_recycler t ~pid ~tag:tg ~status:wc.Rdma.Verbs.status;
      match wc.Rdma.Verbs.status with
      | Rdma.Verbs.Success -> Some (pid, tg)
      | Rdma.Verbs.Remote_access_error | Rdma.Verbs.Operation_timeout | Rdma.Verbs.Flushed
        ->
        abort t
          (Fmt.str "operation on peer %d failed: %a" pid Rdma.Verbs.pp_wc_status
             wc.Rdma.Verbs.status)))

(* Consume completions until [needed] successes with tag [tag] have been
   seen; returns the peer ids that succeeded. Completions from older tags
   are discarded if successful — but any error completion means this
   leader lost write permission somewhere (or a follower died) and aborts
   the call, matching "abort if any write fails" (Listing 2). *)
let await_tag t ~tag ~needed =
  let successes = ref [] in
  while List.length !successes < needed do
    match drain_completion t with
    | Some (pid, tg) when tg = tag -> successes := pid :: !successes
    | Some _ | None -> ()
  done;
  !successes

(* --- permission acquisition (Listing 2, lines 8-12) ------------------- *)

(* Ns a new leader waits for stragglers' permission acks once it holds a
   majority, and only while some replica missing from the acks is alive in
   its own failure detector's view. At a fail-over the one missing ack is
   the replaced leader's, already suspected, so the leader goes on at its
   majority (Listing 2); a late grant still joins through
   [grow_followers]. A failure-free establish (every boot) keeps the
   wait. *)
let grow_followers_grace = 100_000

let acquire_followers t =
  Replica.phase t "perm_acquire" @@ fun () ->
  let host = t.Replica.host in
  let gen = Permissions.request_permissions t in
  let deadline = Sim.Engine.now (Replica.engine t) + 500_000_000 in
  let rec wait_majority () =
    Sim.Host.arm t.Replica.ack_bell;
    let acks = Permissions.acked t ~gen in
    if List.length acks >= Replica.majority t then acks
    else if Sim.Engine.now (Replica.engine t) > deadline then
      abort t "no majority of permission acks"
    else begin
      Sim.Host.park ~until:deadline t.Replica.ack_bell ~period:Permissions.poll_interval;
      wait_majority ()
    end
  in
  let acks = wait_majority () in
  (* Growing confirmed followers (§4.2): wait briefly for the live
     stragglers so timely replicas are not left behind. *)
  let live_straggler p =
    (not (List.mem p.Replica.pid acks)) && Election.is_alive t p.Replica.pid
  in
  let acks =
    if List.mem t.Replica.id acks && not (List.exists live_straggler t.Replica.peers)
    then acks
    else begin
      Sim.Host.idle host grow_followers_grace;
      Permissions.acked t ~gen
    end
  in
  let cf = List.filter (fun id -> id <> t.Replica.id) acks in
  if List.length cf < remote_majority t then abort t "lost permission acks";
  t.Replica.confirmed <- cf;
  t.Replica.need_new_followers <- false;
  t.Replica.skip_prepare <- false

(* --- leader catch-up (Listing 5) --------------------------------------- *)

(* Read the 8-byte log-header word at [off] (FUO or minProposal) from
   every confirmed follower. Listings 2 and 5 read them all ("abort if
   any read fails"): the value-visibility argument of Invariant A.6
   needs the full set, not just a majority. *)
let read_words t ~off =
  let cf = confirmed_peers t in
  let tag = Replica.fresh_tag t in
  let bufs =
    List.map
      (fun p ->
        let buf = Bytes.create 8 in
        post_tracked t p ~tag ~post:(fun wr_id ->
            Rdma.Qp.post_read p.Replica.repl_qp ~wr_id ~dst:buf ~dst_off:0 ~len:8
              ~mr:p.Replica.remote_log_mr ~src_off:off);
        (p, buf))
      cf
  in
  ignore (await_tag t ~tag ~needed:(List.length cf));
  List.map (fun (p, buf) -> (p, Int64.to_int (Bytes.get_int64_le buf 0))) bufs

let read_fuos t = Replica.phase t "read_fuos" @@ fun () -> read_words t ~off:Log.fuo_offset

(* Write [fuo] into [p]'s log header, tracked under [tag]. *)
let post_fuo t (p : Replica.peer) ~tag fuo =
  let buf = Bytes.create 8 in
  Bytes.set_int64_le buf 0 (Int64.of_int fuo);
  post_tracked t p ~tag ~post:(fun wr_id ->
      Rdma.Qp.post_write p.Replica.repl_qp ~wr_id ~src:buf ~src_off:0 ~len:8
        ~mr:p.Replica.remote_log_mr ~dst_off:Log.fuo_offset)

(* An empty slot below [p]'s FUO was recycled (or lies under a
   checkpoint [p] took): we are behind what [p]'s log still holds, so we
   install [p]'s checkpoint and copy on from there. *)
let copy_remote_slots t (p : Replica.peer) ~from_idx ~to_idx =
  let log = t.Replica.log in
  let slot_size = Log.slot_size log in
  let rec copy idx =
    if idx < to_idx then begin
      let buf = Bytes.create slot_size in
      let tag = Replica.fresh_tag t in
      post_tracked t p ~tag ~post:(fun wr_id ->
          Rdma.Qp.post_read p.Replica.repl_qp ~wr_id ~dst:buf ~dst_off:0 ~len:slot_size
            ~mr:p.Replica.remote_log_mr ~src_off:(Log.slot_offset log idx));
      let _ = await_tag t ~tag ~needed:1 in
      if Log.decode_slot log buf <> None then (
        Log.write_slot_raw_local log idx buf;
        copy (idx + 1))
      else if t.Replica.checkpoint ~src:p.Replica.pid ~dst:t.Replica.id > idx then
        copy (Log.fuo log)
      else
        abort t
          (Printf.sprintf "catch-up read of slot %d from %d returned an empty entry" idx
             p.Replica.pid)
    end
  in
  copy from_idx

let leader_catch_up t fuos =
  Replica.phase t "catch_up" @@ fun () ->
  let log = t.Replica.log in
  let my_fuo = Log.fuo log in
  match List.fold_left (fun acc (p, f) -> match acc with Some (_, best) when best >= f -> acc | _ -> Some (p, f)) None fuos with
  | Some (p, best) when best > my_fuo ->
    t.Replica.metrics.Metrics.catch_up_entries <-
      t.Replica.metrics.Metrics.catch_up_entries + (best - my_fuo);
    copy_remote_slots t p ~from_idx:my_fuo ~to_idx:best;
    Log.set_fuo log best;
    Replica.apply_committed t
  | Some _ | None -> ()

(* --- update followers (Listing 6) -------------------------------------- *)

let update_followers t fuos =
  Replica.phase t "update_followers" @@ fun () ->
  let log = t.Replica.log in
  let my_fuo = Log.fuo log in
  let tag = Replica.fresh_tag t in
  let posted = ref 0 in
  List.iter
    (fun (p, f) ->
      (* A follower behind our recycled prefix takes our checkpoint first. *)
      let f =
        if f < my_fuo && (f < t.Replica.zeroed_up_to || not (Log.slot_filled log f)) then
          max f (t.Replica.checkpoint ~src:t.Replica.id ~dst:p.Replica.pid)
        else f
      in
      if f < my_fuo then begin
        for idx = f to my_fuo - 1 do
          (* A decided slot we are about to copy must never be empty; an
             empty image here would mean the entry was recycled while some
             follower still needed it — fail loudly rather than plant a
             hole in its log (cf. Lemma A.11 and §5.3). *)
          if Log.read_slot log idx = None then
            abort t
              (Printf.sprintf "slot %d needed by follower %d was recycled" idx
                 p.Replica.pid);
          let img = Log.read_slot_raw log idx in
          t.Replica.metrics.Metrics.update_entries <-
            t.Replica.metrics.Metrics.update_entries + 1;
          post_tracked t p ~tag ~post:(fun wr_id ->
              Rdma.Qp.post_write p.Replica.repl_qp ~wr_id ~src:img ~src_off:0
                ~len:(Bytes.length img) ~mr:p.Replica.remote_log_mr
                ~dst_off:(Log.slot_offset log idx));
          incr posted
        done;
        post_fuo t p ~tag my_fuo;
        incr posted
      end)
    fuos;
  if !posted > 0 then ignore (await_tag t ~tag ~needed:!posted)

let become_leader t =
  Replica.phase t "become_leader" @@ fun () ->
  acquire_followers t;
  let fuos = read_fuos t in
  leader_catch_up t fuos;
  (* update_followers re-reads our FUO, so it uses the post-catch-up one. *)
  update_followers t fuos

(* Growing confirmed followers (§4.2, A.4.4): a replica whose permission
   ack arrived after the leader settled on a majority joins the set on the
   next propose — after being brought up to date, "the behavior is the
   same as if ℓ just became leader and its initial confirmed followers set
   was C ∪ S". *)
let stragglers t =
  let fresh id = id <> t.Replica.id && not (List.mem id t.Replica.confirmed) in
  List.filter fresh (Permissions.acked t ~gen:t.Replica.req_gen)

let grow_followers t =
  let newcomers = stragglers t in
  if newcomers <> [] then begin
    t.Replica.metrics.Metrics.followers_grown <-
      t.Replica.metrics.Metrics.followers_grown + List.length newcomers;
    t.Replica.confirmed <- List.sort compare (t.Replica.confirmed @ newcomers);
    (* The enlarged set behaves like a fresh one: catch up both ways and
       re-run the prepare phase before the next accept (A.4.5 (b)). *)
    let fuos = read_fuos t in
    leader_catch_up t fuos;
    update_followers t fuos;
    t.Replica.skip_prepare <- false
  end

(* --- prepare phase (Listing 2, lines 17-29) ---------------------------- *)

let prepare_phase t ~idx =
  Replica.phase t "prepare" @@ fun () ->
  t.Replica.metrics.Metrics.prepare_phases <- t.Replica.metrics.Metrics.prepare_phases + 1;
  let log = t.Replica.log in
  let minps = read_words t ~off:Log.min_proposal_offset in
  check_own_permission t;
  let highest =
    List.fold_left
      (fun acc (_, mp) -> Int64.max acc (Int64.of_int mp))
      (Log.min_proposal log) minps
  in
  let prop_num = Replica.fresh_prop_num t ~above:highest in
  (* Write the new proposal number into each confirmed follower's
     minProposal, then read their slot at [idx]; RC FIFO ensures the write
     lands before the read executes. *)
  Log.set_min_proposal log prop_num;
  let cf = confirmed_peers t in
  let tag = Replica.fresh_tag t in
  let prop_buf = Bytes.create 8 in
  Bytes.set_int64_le prop_buf 0 prop_num;
  let slot_size = Log.slot_size log in
  let bufs =
    List.map
      (fun p ->
        post_tracked t p ~tag:(-1) ~post:(fun wr_id ->
            Rdma.Qp.post_write p.Replica.repl_qp ~wr_id ~src:prop_buf ~src_off:0 ~len:8
              ~mr:p.Replica.remote_log_mr ~dst_off:Log.min_proposal_offset);
        let buf = Bytes.create slot_size in
        post_tracked t p ~tag ~post:(fun wr_id ->
            Rdma.Qp.post_read p.Replica.repl_qp ~wr_id ~dst:buf ~dst_off:0 ~len:slot_size
              ~mr:p.Replica.remote_log_mr ~src_off:(Log.slot_offset log idx));
        (p.Replica.pid, buf))
      cf
  in
  let ok = await_tag t ~tag ~needed:(List.length cf) in
  let remote_slots =
    List.filter_map
      (fun (pid, buf) -> if List.mem pid ok then Log.decode_slot log buf else None)
      bufs
  in
  let all_slots =
    match Log.read_slot log idx with Some s -> s :: remote_slots | None -> remote_slots
  in
  match all_slots with
  | [] ->
    (* Only empty slots: adopt our own value and omit the prepare phase
       from now on (§4.2, Corollary A.12). *)
    if not t.Replica.config.Config.disable_omit_prepare then
      t.Replica.skip_prepare <- true;
    (prop_num, None)
  | _ :: _ ->
    let best =
      List.fold_left
        (fun (acc : Log.slot) (s : Log.slot) ->
          if Int64.compare s.Log.proposal acc.Log.proposal > 0 then s else acc)
        (List.hd all_slots) (List.tl all_slots)
    in
    (prop_num, Some best.Log.value)

(* --- accept phase (Listing 2, lines 31-37) ----------------------------- *)

(* One RDMA write per confirmed follower covers [List.length imgs]
   physically contiguous slots starting at [idx]: a doorbell-batched group,
   of which a single slot is the k = 1 case. The caller guarantees the
   range does not cross the circular-log wrap boundary, so slot images
   concatenate (at slot stride) into a single wire buffer; slots before
   the last are padded to the full stride, which matches a freshly zeroed
   slot tail. The persistence-domain flush, like the NIC doorbell, is paid
   once for the whole group — the amortization that makes batching a
   throughput lever. *)
let post_accept t ~tag ~idx ~imgs =
  check_own_permission t;
  let log = t.Replica.log in
  (* A durable local append must also reach the persistence domain. *)
  if t.Replica.config.Config.persistent_log then
    Sim.Host.cpu t.Replica.host (Replica.cal t).Sim.Calibration.pmem_flush;
  List.iteri (fun i img -> Log.write_slot_raw_local log (idx + i) img) imgs;
  let buf =
    match imgs with
    | [] -> invalid_arg "Replication.post_accept: empty slot range"
    | [ img ] -> img
    | imgs ->
      let stride = Log.slot_size log in
      let k = List.length imgs in
      let last = List.nth imgs (k - 1) in
      let buf = Bytes.make (((k - 1) * stride) + Bytes.length last) '\000' in
      List.iteri (fun i img -> Bytes.blit img 0 buf (i * stride) (Bytes.length img)) imgs;
      buf
  in
  List.iter
    (fun p ->
      post_tracked t p ~tag ~post:(fun wr_id ->
          Rdma.Qp.post_write p.Replica.repl_qp ~wr_id ~src:buf ~src_off:0
            ~len:(Bytes.length buf) ~mr:p.Replica.remote_log_mr
            ~dst_off:(Log.slot_offset log idx)))
    (confirmed_peers t)

let accept_phase t ~prop_num ~value ~idx =
  Replica.phase t "accept" @@ fun () ->
  t.Replica.metrics.Metrics.accept_rounds <- t.Replica.metrics.Metrics.accept_rounds + 1;
  let img = Log.encode_slot t.Replica.log ~proposal:prop_num ~value in
  let tag = Replica.fresh_tag t in
  post_accept t ~tag ~idx ~imgs:[ img ];
  ignore (await_tag t ~tag ~needed:(remote_majority t))

(* --- commit: one report of each commit to every view ------------------- *)

let commit ?(within = fun f -> f ()) ?since t ~upto =
  let e = Replica.engine t in
  let t0 = Sim.Engine.now e in
  within (fun () ->
      Log.set_fuo t.Replica.log upto;
      Replica.apply_committed t);
  Metrics.commit t.Replica.metrics ~t0 ~now:(Sim.Engine.now e) ~upto ~since;
  if Sim.Engine.traced e then
    Sim.Engine.trace_counter e ~cat:"mu" ~pid:t.Replica.id "fuo" ~value:upto

(* --- log-space backpressure (§5.3) ------------------------------------- *)

let wait_log_space t ~idx =
  let cfg = t.Replica.config in
  let limit = cfg.Config.log_slots - cfg.Config.recycle_slack in
  while idx - t.Replica.zeroed_up_to >= limit do
    if t.Replica.stop then abort t "stopped";
    Sim.Host.idle t.Replica.host 10_000
  done

(* --- propose (Listing 2) ------------------------------------------------ *)

let propose t value =
  if t.Replica.stop || t.Replica.removed then raise (Aborted "replica stopped");
  t.Replica.metrics.Metrics.proposes <- t.Replica.metrics.Metrics.proposes + 1;
  Replica.set_propose_started_at t (Some (Sim.Engine.now (Replica.engine t)));
  Fun.protect
    ~finally:(fun () -> Replica.set_propose_started_at t None)
    (fun () ->
      Replica.phase t "propose" @@ fun () ->
      if t.Replica.need_new_followers then become_leader t
      else grow_followers t;
      let committed_at = ref (-1) in
      while !committed_at < 0 do
        let idx = Log.fuo t.Replica.log in
        wait_log_space t ~idx;
        let prop_num, adopted =
          if t.Replica.skip_prepare then (t.Replica.prop_num, None)
          else prepare_phase t ~idx
        in
        let v = match adopted with Some v -> v | None -> value in
        accept_phase t ~prop_num ~value:v ~idx;
        (* Only our own value's commit ends the client-visible replication. *)
        let since = if adopted = None then t.Replica.propose_started_at else None in
        commit t ~within:(Replica.phase t "commit") ?since ~upto:(idx + 1);
        if adopted = None then committed_at := idx
      done;
      t.Replica.metrics.Metrics.commits <- t.Replica.metrics.Metrics.commits + 1;
      !committed_at)

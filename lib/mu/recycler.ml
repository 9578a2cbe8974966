(* Read one follower's log head (8 bytes in its background MR) over the
   misc QP; this fiber is that CQ's only consumer. Failures are returned,
   not swallowed: which ones may safely exclude the peer from the minimum
   is a policy decision that belongs to [recycle_once]. *)
let read_log_head t (p : Replica.peer) =
  let buf = Bytes.create 8 in
  Rdma.Qp.post_read p.Replica.misc_qp ~wr_id:(Replica.fresh_wr_id t) ~dst:buf ~dst_off:0
    ~len:8 ~mr:p.Replica.remote_bg_mr ~src_off:Replica.bg_log_head_offset;
  match (Rdma.Cq.await p.Replica.misc_cq).Rdma.Verbs.status with
  | Rdma.Verbs.Success -> Ok (Int64.to_int (Bytes.get_int64_le buf 0))
  | status ->
    Metrics.recycler_error t.Replica.metrics;
    let e = Replica.engine t in
    if Sim.Engine.traced e then
      Sim.Engine.trace_instant e ~cat:"mu" ~pid:t.Replica.id
        ~args:
          [
            ("peer", string_of_int p.Replica.pid);
            ("status", Fmt.str "%a" Rdma.Verbs.pp_wc_status status);
          ]
        "recycle_head_read_failed";
    Error status

(* Cap on fire-and-forget zeroing writes awaiting completions on the
   shared replication CQ. A deposed leader stops proposing, so nothing
   reaps its tag; without a cap it would keep stuffing the CQ every
   recycle round until demotion. *)
let max_outstanding = 256

(* Zero the physical byte ranges of logical slots [from_idx, to_idx), both
   locally and in each confirmed follower's log. Ranges are coalesced into
   at most two contiguous writes (the region may wrap) and chunked so a
   single write stays modest. Returns [true] when every remote write was
   posted; [false] when the round was cut short because this replica's
   standing as leader came into doubt mid-round (permission lost, QP no
   longer ready, too many unreaped completions) — the caller must then
   keep the watermark where it was so the next round retries. Local
   zeroing below [minHead] is safe unconditionally: every replica has
   executed those entries. *)
let zero_ranges t ~from_idx ~to_idx =
  if to_idx <= from_idx then true
  else begin
    let log = t.Replica.log in
    let slot_size = Log.slot_size log in
    let nslots = Log.slots log in
    let count = to_idx - from_idx in
    assert (count <= nslots);
    let first_phys = from_idx mod nslots in
    let first_run = min count (nslots - first_phys) in
    let runs =
      if first_run = count then [ (first_phys, count) ]
      else [ (first_phys, first_run); (0, count - first_run) ]
    in
    let chunk_slots = max 1 (262_144 / slot_size) in
    let cf = List.filter_map (fun id -> Replica.peer_opt t id) t.Replica.confirmed in
    let complete = ref true in
    List.iter
      (fun (phys_start, run) ->
        let off = ref 0 in
        while !off < run do
          let n = min chunk_slots (run - !off) in
          let byte_off = Log.slot_offset log (phys_start + !off) in
          let len = n * slot_size in
          Rdma.Mr.zero (Log.mr log) ~off:byte_off ~len;
          List.iter
            (fun p ->
              (* Demote-safety: between two chunks the permission manager
                 may have granted our log away (we are being deposed) or
                 our QP toward this follower may have gone to ERR. Posting
                 regardless would only manufacture error completions for
                 the propose path to trip over; stop and let the next
                 round retry from the old watermark. *)
              if
                t.Replica.perm_holder <> Some t.Replica.id
                || Rdma.Qp.state p.Replica.repl_qp <> Rdma.Verbs.Rts
                || t.Replica.recycler_outstanding >= max_outstanding
              then complete := false
              else begin
                let wr = Replica.fresh_wr_id t in
                Replica.Itbl.replace t.Replica.inflight wr
                  (p.Replica.pid, Replica.recycler_tag);
                t.Replica.recycler_outstanding <- t.Replica.recycler_outstanding + 1;
                Rdma.Qp.post_zero p.Replica.repl_qp ~wr_id:wr ~len ~mr:p.Replica.remote_log_mr
                  ~dst_off:byte_off
              end)
            cf;
          off := !off + n
        done)
      runs;
    !complete
  end

(* Decide whether the heads that did answer bound the minimum. Log heads
   of ALL followers are consulted, not just the confirmed ones (§5.3): a
   replica currently outside the confirmed set — e.g. one whose permission
   ack arrived late — still holds a position in the log, and zeroing past
   it would hand it recycled (empty) entries at the next leader change.
   Under the crash-stop model (§2.2) a peer whose NIC stopped answering
   (timeout, or a flushed read on a QP a previous timeout broke) never
   returns, so a non-confirmed unreachable peer may be dropped from the
   minimum — that is what keeps recycling live with a dead replica. But a
   failed read from a *confirmed* peer, or a permission error from anyone,
   says this leader's view is stale; zeroing on such a round could erase
   entries a live replica still needs, so the round is skipped. *)
let round_safe t results =
  List.for_all
    (fun ((p : Replica.peer), r) ->
      match r with
      | Ok _ -> true
      | Error Rdma.Verbs.Remote_access_error -> false
      | Error _ -> not (List.mem p.Replica.pid t.Replica.confirmed))
    results

let recycle_once t =
  let results = List.map (fun p -> (p, read_log_head t p)) t.Replica.peers in
  if not (round_safe t results) then Metrics.recycle_skip t.Replica.metrics
  else begin
    let heads = List.filter_map (fun (_, r) -> Result.to_option r) results in
    let min_head = List.fold_left min t.Replica.applied heads in
    if min_head > t.Replica.zeroed_up_to then begin
      let count = min_head - t.Replica.zeroed_up_to in
      let complete =
        Replica.phase t ~args:[ ("slots", string_of_int count) ] "recycle" @@ fun () ->
        zero_ranges t ~from_idx:t.Replica.zeroed_up_to ~to_idx:min_head
      in
      (* The watermark only advances once every follower's copy of the
         range has a zeroing write posted; a cut-short round retries. *)
      if complete then begin
        t.Replica.zeroed_up_to <- min_head;
        Metrics.recycled t.Replica.metrics ~slots:count ~watermark:min_head
      end
      else Metrics.recycle_skip t.Replica.metrics
    end
  end

let start t =
  Sim.Host.spawn t.Replica.host ~name:"recycler" (fun () ->
      let rec loop () =
        if t.Replica.stop || t.Replica.removed then ()
        else begin
          if
            t.Replica.role = Replica.Leader
            && (not t.Replica.need_new_followers)
            && t.Replica.confirmed <> []
            && t.Replica.perm_holder = Some t.Replica.id
          then recycle_once t;
          Sim.Host.idle t.Replica.host t.Replica.config.Config.recycle_interval;
          loop ()
        end
      in
      loop ())

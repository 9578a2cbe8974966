type app = { apply : bytes -> bytes; snapshot : unit -> bytes; install : bytes -> unit }

let stateless_app apply = { apply; snapshot = (fun () -> Bytes.empty); install = ignore }

type request = {
  payload : bytes;
  resp : bytes Sim.Engine.Ivar.ivar;
  (* Provenance root span of this request (0 when provenance is off) and
     its submit time; both are stable across retries, requeues and leader
     changes — the id is what `--explain` follows through the
     fail-over. *)
  prov : int;
  submitted : int;
  (* Retry-ring slot that will check this request, -1 if none (see
     [arm_retry]). *)
  mutable retry_slot : int;
}

(* One completed rejoin (restart → log parity), kept for harnesses and
   the bench reporter; the same numbers also land in telemetry. *)
type rejoin = {
  pid : int;
  restarted_at : int;
  parity_at : int;
  entries_pulled : int;
  pull_rounds : int;
  recheckpoints : int;
}

type t = {
  engine : Sim.Engine.t;
  calibration : Sim.Calibration.t;
  cfg : Config.t;
  mutable replicas : Replica.t array;
  mutable apps : app array;
  make_app : int -> app;
  incoming : request Sim.Engine.Chan.chan;
  backpressure : Recovery.Backpressure.t;
  (* Hosts with a restart pipeline in flight; guards double restarts. *)
  restarting : (int, unit) Hashtbl.t;
  mutable rejoins : rejoin list;
  mutable degraded_windows : int;
  mutable degraded_total_ns : int;
  (* Leader-side response cache: (replica id, slot index), packed by
     [response_key], → responses of the batch committed at that slot,
     filled by the on-commit hook. *)
  responses : bytes list Replica.Itbl.t;
  (* Provenance: payload image → request span, so the commit hook — which
     only sees decoded payload bytes — can stamp an "applied" point per
     (request, slot). A request applied under two slots is a duplicate. *)
  prov_requests : (string, int) Hashtbl.t;
  (* Provenance span of the last establish() (perm switch / fail-over
     takeover) and when it finished, for blocked-by edges at pickup. *)
  mutable establish_span : int;
  mutable establish_end : int;
  mutable next_id : int;
  mutable stopped : bool;
  (* Client retries (see [arm_retry]); built on the first armed retry. *)
  mutable retries : retries option;
  mutable resends : int;
}

(* Each armed retry is a slot: [ring] maps it (mod its power-of-two
   length) to the request it will check, or to [none] once the reply
   landed, and [due] to its deadline. Every slot waits the same
   [client_retry_interval], so deadlines grow in arm order and the live
   slots [head, next) form a FIFO: one engine event, [tick], queued for
   the head's deadline, serves them all. *)
and retries = {
  mutable ring : request array;
  mutable due : int array;
  mutable head : int;
  mutable next : int;
  mutable pending : int; (* occupied slots *)
  none : request;
  tick : unit -> unit;
}

let replicas t = t.replicas
let replica t id = t.replicas.(id)
let rejoins t = List.rev t.rejoins
let restarts_in_flight t = Hashtbl.length t.restarting
let shed_requests t = Recovery.Backpressure.sheds t.backpressure
let queue_depth t = Sim.Engine.Chan.length t.incoming
let degraded_windows t = t.degraded_windows
let degraded_total_ns t = t.degraded_total_ns
let retries_pending t = match t.retries with Some r -> r.pending | None -> 0
let resends t = t.resends

(* Retryable-error sentinel: returned instead of an application response
   when a degraded leader sheds a request past the queue bound. The '!'
   first byte is reserved — no application reply starts with it. *)
let retryable_error = Bytes.of_string "!RETRY"
let is_retryable b = Bytes.length b > 0 && Bytes.get b 0 = '!'

(* --- batch framing ----------------------------------------------------- *)

let config_marker = 0xFFFFFFFFl

type config_op = Remove of int | Add of int

let encode_batch payloads =
  let total =
    List.fold_left (fun acc p -> acc + 4 + Bytes.length p) 4 payloads
  in
  let buf = Bytes.create total in
  Bytes.set_int32_le buf 0 (Int32.of_int (List.length payloads));
  let off = ref 4 in
  List.iter
    (fun p ->
      Bytes.set_int32_le buf !off (Int32.of_int (Bytes.length p));
      Bytes.blit p 0 buf (!off + 4) (Bytes.length p);
      off := !off + 4 + Bytes.length p)
    payloads;
  buf

let encode_config_op op =
  let buf = Bytes.create 9 in
  Bytes.set_int32_le buf 0 config_marker;
  (match op with
  | Remove id ->
    Bytes.set buf 4 '\001';
    Bytes.set_int32_le buf 5 (Int32.of_int id)
  | Add id ->
    Bytes.set buf 4 '\002';
    Bytes.set_int32_le buf 5 (Int32.of_int id));
  buf

let decode_config_op value =
  if Bytes.length value < 9 || Bytes.get_int32_le value 0 <> config_marker then None
  else
    let id = Int32.to_int (Bytes.get_int32_le value 5) in
    match Bytes.get value 4 with
    | '\001' -> Some (Remove id)
    | '\002' -> Some (Add id)
    | _ -> None

let decode_batch value =
  if Bytes.length value < 4 then Some []
  else if Bytes.get_int32_le value 0 = config_marker then None
  else begin
    let count = Int32.to_int (Bytes.get_int32_le value 0) in
    let off = ref 4 in
    let payloads = ref [] in
    (try
       for _ = 1 to count do
         let len = Int32.to_int (Bytes.get_int32_le value !off) in
         payloads := Bytes.sub value (!off + 4) len :: !payloads;
         off := !off + 4 + len
       done
     with Invalid_argument _ -> ());
    Some (List.rev !payloads)
  end

let noop = encode_batch []

(* --- commit hook -------------------------------------------------------- *)

let apply_config _t (r : Replica.t) op =
  match op with
  | Remove id ->
    if id = r.Replica.id then begin
      r.Replica.removed <- true;
      r.Replica.stop <- true
    end
    else begin
      r.Replica.peers <- List.filter (fun p -> p.Replica.pid <> id) r.Replica.peers;
      Replica.Itbl.remove r.Replica.alive id;
      Replica.Itbl.remove r.Replica.scores id;
      if List.mem id r.Replica.confirmed then begin
        r.Replica.confirmed <- List.filter (fun c -> c <> id) r.Replica.confirmed;
        r.Replica.need_new_followers <- true
      end
    end
  | Add _ ->
    (* Wiring happens out of band in [add_replica]; the entry serializes
       the membership change in the log (§5.4). *)
    ()

(* A restarted replica's durable FUO can sit above slots the recycler
   zeroed before the crash. Its log replays only up to the first missing
   entry at or above [applied], so the FUO stops there (at [applied] if
   it was below) and catch-up pulls the rest from the leader. *)
let stop_fuo_at_gap (r : Replica.t) =
  let log = r.Replica.log in
  let fuo = ref r.Replica.applied in
  while !fuo < Log.fuo log && Log.slot_filled log !fuo do incr fuo done;
  Log.set_fuo log !fuo

(* The one checkpoint install (§5.4): [source]'s application state onto
   [target], which only moves forward; returns the target's log head.
   Before [applied] and [zeroed_up_to] jump to the checkpoint s, the
   target's slots [max applied (s - log_slots), s) are zeroed: they may
   hold undecided entries or an older lap's, which the recycler (§5.3)
   never zeroes below its watermark, so a later catch-up could copy them
   as decided. Decided durable entries past s replay from the target's
   own log, up to its first missing one. *)
let install_checkpoint t ~(source : Replica.t) (target : Replica.t) =
  let s = source.Replica.applied in
  if s > target.Replica.applied then begin
    let log = target.Replica.log in
    for idx = Int.max target.Replica.applied (s - Log.slots log) to s - 1 do
      Log.zero_slot_local log idx
    done;
    t.apps.(target.Replica.id).install (t.apps.(source.Replica.id).snapshot ());
    target.Replica.applied <- s;
    stop_fuo_at_gap target;
    target.Replica.zeroed_up_to <- s
  end;
  Replica.apply_committed target;
  Rdma.Mr.set_int target.Replica.bg_mr ~off:Replica.bg_log_head_offset target.Replica.applied;
  target.Replica.applied

(* Where a joining or rejoining replica [id] takes its checkpoint: "Mu
   uses the standard approach of check-pointing state; we do so from one
   of the followers" — a live follower of leader [l], off the leader's
   critical path, or [l] itself if none is live. [add_replica] and the
   rejoin pipeline use it; the rejoin may install repeatedly (the first
   checkpoint races the recycler; a recycled entry forces a fresh one).
   A leader's own catch-up and update-followers name their source
   ([Replica.checkpoint]). *)
let follower_source t ~(l : Replica.t) id =
  Array.to_list t.replicas
  |> List.find_opt (fun (r : Replica.t) ->
         r.Replica.id <> l.Replica.id
         && r.Replica.id <> id
         && (not r.Replica.removed)
         && Sim.Host.process_alive r.Replica.host)
  |> Option.value ~default:l

(* Replica ids stay below [Replica.max_replicas] and slot indices below
   2^40, so the slot index takes the low bits the table hashes on. *)
let response_key (r : Replica.t) idx = idx lor (r.Replica.id lsl 40)

(* [config_floor]: log index below which configuration entries are
   replayed as no-ops. A rejoining replica reconstructs current
   membership directly from the survivors while it is wired back in;
   historical Remove/Add entries replayed from its durable log would
   re-apply those transitions against the *current* member set (e.g. a
   replica's own old Remove would stop its new incarnation). Entries at
   or above the floor were decided after the rewiring and apply
   normally. *)
let install_commit_hook ?(config_floor = 0) t (r : Replica.t) =
  r.Replica.checkpoint <-
    (fun ~src ~dst -> install_checkpoint t ~source:t.replicas.(src) t.replicas.(dst));
  r.Replica.on_commit <-
    (fun idx value ->
      match decode_batch value with
      | None ->
        (match decode_config_op value with
        | Some op when idx >= config_floor -> apply_config t r op
        | Some _ | None -> ())
      | Some payloads ->
        let app = t.apps.(r.Replica.id) in
        let resps = List.map (fun p -> app.apply p) payloads in
        if Sim.Engine.provenance_on t.engine then
          List.iter
            (fun p ->
              match Hashtbl.find_opt t.prov_requests (Bytes.to_string p) with
              | Some span ->
                Sim.Engine.span_point t.engine ~pid:r.Replica.id ~span "applied"
                  ~args:
                    [ ("idx", string_of_int idx); ("replica", string_of_int r.Replica.id) ]
              | None -> ())
            payloads;
        if r.Replica.role = Replica.Leader then
          Replica.Itbl.replace t.responses (response_key r idx) resps)

(* --- leader service ----------------------------------------------------- *)

let attach_cost (cal : Sim.Calibration.t) = function
  | Config.Standalone -> 0
  | Config.Direct -> cal.direct_interference
  | Config.Handover -> cal.handover_hop

let stage_cost (cal : Sim.Calibration.t) payload_len =
  cal.memcpy_request + int_of_float (float_of_int payload_len *. cal.memcpy_byte)

let requeue t reqs =
  List.iter
    (fun req ->
      Sim.Engine.span_point t.engine ~span:req.prov "requeue";
      Sim.Engine.Chan.send t.incoming req)
    reqs

(* A request captured by a leader that then fails stays parked in that
   leader's hands; like any SMR client, we retransmit after a timeout.
   Requests may therefore execute more than once across a leader change
   (at-least-once; see the interface comment). A pending retry is a ring
   slot, not a closure: the request stays reachable from [retries] only
   until its reply lands, not from the event queue for the whole
   interval. *)
let client_retry_interval = 2_000_000

let rec arm_retry t req =
  let r =
    match t.retries with
    | Some r -> r
    | None ->
      let none =
        {
          payload = Bytes.empty;
          resp = Sim.Engine.Ivar.create t.engine;
          prov = 0;
          submitted = 0;
          retry_slot = -1;
        }
      in
      let rec r =
        {
          ring = Array.make 64 none;
          due = Array.make 64 0;
          head = 0;
          next = 0;
          pending = 0;
          none;
          tick = (fun () -> retry_tick t r);
        }
      in
      t.retries <- Some r;
      r
  in
  let slot = r.next in
  r.next <- slot + 1;
  let cap = Array.length r.ring in
  if slot - r.head = cap then begin
    let ring = Array.make (2 * cap) r.none and due = Array.make (2 * cap) 0 in
    for s = r.head to slot - 1 do
      ring.(s land ((2 * cap) - 1)) <- r.ring.(s land (cap - 1));
      due.(s land ((2 * cap) - 1)) <- r.due.(s land (cap - 1))
    done;
    r.ring <- ring;
    r.due <- due
  end;
  let i = slot land (Array.length r.ring - 1) in
  r.due.(i) <- Sim.Engine.now t.engine + client_retry_interval;
  (* A stopped cluster keeps only the deadline, so the slot fires as a
     no-op. *)
  if not t.stopped then begin
    r.ring.(i) <- req;
    req.retry_slot <- slot;
    r.pending <- r.pending + 1
  end;
  (* The tick is queued exactly while the ring is not empty. *)
  if slot = r.head then Sim.Engine.schedule t.engine ~at:r.due.(i) r.tick

(* Fire every slot due by now, in arm order: a request still unanswered
   is resent and re-armed. [head] moves past a slot only after it fired,
   so a re-arm never finds the ring empty and queues a second tick. Then
   wait for the next head, if any. *)
and retry_tick t r =
  let now = Sim.Engine.now t.engine in
  while r.head < r.next && r.due.(r.head land (Array.length r.due - 1)) <= now do
    let i = r.head land (Array.length r.ring - 1) in
    let req = r.ring.(i) in
    if req != r.none then begin
      r.ring.(i) <- r.none;
      r.pending <- r.pending - 1;
      req.retry_slot <- -1;
      if (not (Sim.Engine.Ivar.is_filled req.resp)) && not t.stopped then begin
        Sim.Engine.span_point t.engine ~span:req.prov "client_retry";
        t.resends <- t.resends + 1;
        Sim.Engine.Chan.send t.incoming req;
        arm_retry t req
      end
    end;
    r.head <- r.head + 1
  done;
  if r.head < r.next then
    Sim.Engine.schedule t.engine ~at:r.due.(r.head land (Array.length r.due - 1)) r.tick

let fill_responses t (r : Replica.t) idx reqs =
  match Replica.Itbl.find_opt t.responses (response_key r idx) with
  | Some resps when List.length resps = List.length reqs ->
    Replica.Itbl.remove t.responses (response_key r idx);
    List.iter2
      (fun req resp ->
        if Sim.Engine.Ivar.try_fill req.resp resp && req.prov <> 0 then
          Sim.Engine.span_close t.engine ~args:[ ("idx", string_of_int idx) ] req.prov;
        (* Answered: its pending retry will find the slot empty. *)
        match t.retries with
        | Some r when req.retry_slot >= 0 ->
          let i = req.retry_slot land (Array.length r.ring - 1) in
          if r.ring.(i) == req then begin
            r.ring.(i) <- r.none;
            r.pending <- r.pending - 1
          end;
          req.retry_slot <- -1
        | Some _ | None -> ())
      reqs resps
  | Some _ | None ->
    (* The batch executed under a different role or got superseded; the
       requests were (or will be) re-proposed. *)
    ()

(* Provenance at batch formation: a "pickup" point per request (queueing
   time = pickup − submit), a batched_into edge to the batch span, and a
   blocked_by edge when the request sat in the queue behind a fail-over
   takeover (establish). *)
let prov_pickup t batch_span reqs =
  if Sim.Engine.provenance_on t.engine then
    List.iter
      (fun req ->
        Sim.Engine.span_point t.engine ~span:req.prov "pickup";
        Sim.Engine.span_edge t.engine ~kind:"batched_into" ~src:req.prov ~dst:batch_span ();
        if req.submitted < t.establish_end && req.prov <> 0 then
          Sim.Engine.span_edge t.engine ~kind:"blocked_by" ~src:req.prov
            ~dst:t.establish_span ())
      reqs

let gather_batch t first =
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      match Sim.Engine.Chan.poll t.incoming with
      | None -> List.rev acc
      | Some req -> go (req :: acc) (k - 1)
  in
  go [ first ] (t.cfg.Config.max_batch - 1)

let establish t (r : Replica.t) =
  Sim.Engine.with_span t.engine ~pid:r.Replica.id "establish" @@ fun span ->
  if span <> 0 then begin
    t.establish_span <- span;
    t.establish_end <- max_int (* open: everything queued now is blocked *)
  end;
  Fun.protect
    ~finally:(fun () ->
      if span <> 0 then t.establish_end <- Sim.Engine.now t.engine)
    (fun () ->
      try
        ignore (Replication.propose r noop);
        true
      with Replication.Aborted _ ->
        Sim.Host.idle r.Replica.host 50_000;
        false)

(* The leader's service loop (§4, §7.4): up to [cfg.max_outstanding]
   groups of slot writes in flight. Each fill step gathers up to
   [cfg.doorbell] batches, stages them into that many contiguous log
   slots, and rings the NIC once — a single RDMA write per confirmed
   follower covers the whole slot range, and one completion per peer
   acknowledges the group. Commit then advances the FUO past the group in
   one move, amortizing both the wire and the commit bookkeeping over k
   entries. Pipelining is the k = 1 case; the default configuration is a
   window of one slot, one batch replicated at a time (Figs. 3-5). *)
type slot = { idx : int; reqs : request list; span : int }

type group =
  { first : int; count : int; posted : int; mutable acks : int; slots : slot list }

let serve_windowed t (r : Replica.t) =
  let c = Replica.cal r in
  let e = t.engine in
  let window : group Queue.t = Queue.create () in
  let inflight_slots () = Queue.fold (fun acc g -> acc + g.count) 0 window in
  (* One "accept" async span per group, post to quorum ack, keyed by leader. *)
  let accept_id g = ((r.Replica.id + 1) lsl 40) lor g.first in
  let end_accept g outcome =
    if Sim.Engine.traced e then
      Sim.Engine.trace_async_end e ~cat:"mu" ~pid:r.Replica.id ~id:(accept_id g)
        ~args:[ ("outcome", outcome) ] "accept"
  in
  (* The oldest group in flight is the replication activity fate sharing watches (§5.1). *)
  let note_oldest () =
    r.Replica.propose_started_at <- Option.map (fun g -> g.posted) (Queue.peek_opt window)
  in
  let restore_window () =
    Queue.iter
      (fun g ->
        end_accept g "aborted";
        List.iter
          (fun s ->
            if s.span <> 0 then
              Sim.Engine.span_close e ~args:[ ("outcome", "aborted") ] s.span;
            requeue t s.reqs)
          g.slots)
      window;
    Queue.clear window;
    note_oldest ()
  in
  let open_group first =
    let base = Log.fuo r.Replica.log + inflight_slots () in
    (* One wire write must stay physically contiguous, so a group never
       crosses the circular-log wrap boundary (§5.3). *)
    let room = Log.slots r.Replica.log - (base mod Log.slots r.Replica.log) in
    let limit = Int.max 1 (Int.min t.cfg.Config.doorbell room) in
    let rec gather acc count =
      if count = limit then (List.rev acc, count)
      else
        match Sim.Engine.Chan.poll t.incoming with
        | Some next -> gather (gather_batch t next :: acc) (count + 1)
        | None -> (List.rev acc, count)
    in
    let batches, count = gather [ gather_batch t first ] 1 in
    let slots =
      List.mapi
        (fun i reqs ->
          let idx = base + i in
          let span =
            if not (Sim.Engine.provenance_on e) then 0
            else
              let arg k v = (k, string_of_int v) in
              Sim.Engine.span_open e ~pid:r.Replica.id "batch"
                ~args:[ arg "reqs" (List.length reqs); arg "idx" idx; arg "doorbell" count ]
          in
          prov_pickup t span reqs;
          Metrics.batch r.Replica.metrics reqs;
          { idx; reqs; span })
        batches
    in
    Sim.Host.cpu r.Replica.host (attach_cost t.calibration t.cfg.Config.attach);
    let stage req =
      Sim.Host.cpu r.Replica.host (stage_cost t.calibration (Bytes.length req.payload))
    in
    List.iter (fun s -> List.iter stage s.reqs) slots;
    Replication.wait_log_space r ~idx:(base + count - 1);
    let img s =
      let value = encode_batch (List.map (fun req -> req.payload) s.reqs) in
      Log.encode_slot r.Replica.log ~proposal:r.Replica.prop_num ~value
    in
    let g = { first = base; count; posted = Sim.Engine.now e; acks = 0; slots } in
    if Sim.Engine.traced e then
      Sim.Engine.trace_async_begin e ~cat:"mu" ~pid:r.Replica.id ~id:(accept_id g)
        ~args:[ ("idx", string_of_int base); ("slots", string_of_int count) ]
        "accept";
    (* In the window before the post: if the post aborts, the group's
       requests are requeued with the rest. *)
    Queue.push g window;
    if Queue.length window = 1 then note_oldest ();
    Replication.post_accept r ~tag:(Replica.group_tag base) ~idx:base
      ~imgs:(List.map img slots)
  in
  (* Commit whole groups in order from the head of the window. *)
  let commit_ready needed =
    let committed = ref false in
    while (not (Queue.is_empty window)) && (Queue.peek window).acks >= needed do
      let head = Queue.pop window in
      end_accept head "committed";
      Replication.commit r ~since:head.posted ~upto:(head.first + head.count);
      List.iter
        (fun s ->
          if s.span <> 0 then
            Sim.Engine.span_close e ~args:[ ("outcome", "committed") ] s.span;
          fill_responses t r s.idx s.reqs)
        head.slots;
      committed := true
    done;
    if !committed then note_oldest ();
    !committed
  in
  (* A leader that must grow its confirmed followers stops opening groups,
     drains the window and returns: a replica rejoined ([leader_service]
     re-establishes), or a request arrived with a §4.2 straggler's ack
     pending (the propose on re-entry admits it; an idle leader waits). *)
  let straggler = ref false in
  let regrow () = r.Replica.need_new_followers || !straggler in
  try
    (* Make sure omit-prepare is active so the fast path below is valid. *)
    if regrow () || (not r.Replica.skip_prepare) || Replication.stragglers r <> [] then
      ignore (Replication.propose r noop);
    let needed = Replication.remote_majority r in
    while
      r.Replica.role = Replica.Leader
      && (not r.Replica.stop)
      && not (regrow () && Queue.is_empty window)
    do
      let inflight = Queue.length window in
      let full = inflight >= t.cfg.Config.max_outstanding in
      (* Wait policy. An idle leader waits on its queue, so an arrival is
         picked up the instant it lands. A busy one opens another group
         only once a full batch is queued; until then it waits for the
         next completion, so requests that arrive while the wire is busy
         share a slot instead of each taking one. A full window blocks on
         the completion queue, with no timer, as a lone propose does. *)
      let next =
        if inflight = 0 then
          Sim.Engine.Chan.recv_timeout t.incoming c.Sim.Calibration.fd_read_interval
        else if
          (not full)
          && Sim.Engine.Chan.length t.incoming >= t.cfg.Config.max_batch
          && not (regrow ())
        then Sim.Engine.Chan.poll t.incoming
        else None
      in
      (match next with
      | Some first
        when r.Replica.role <> Replica.Leader || r.Replica.stop || regrow () ->
        requeue t [ first ]
      | Some first when Replication.stragglers r <> [] ->
        straggler := true;
        requeue t [ first ]
      | Some first -> open_group first
      | None when inflight > 0 -> (
        let timeout = if full then None else Some 2_000 in
        match Replication.drain_completion r ?timeout with
        | Some (_, tag) ->
          Queue.iter
            (fun g -> if Replica.group_tag g.first = tag then g.acks <- g.acks + 1)
            window
        | None -> ())
      | None -> ());
      (* Let same-instant client fibers woken by the commit enqueue their
         next requests before the next fill attempt polls the queue. An
         empty window waits on the queue anyway. *)
      if commit_ready needed && not (Queue.is_empty window) then Sim.Engine.yield e
    done;
    restore_window ()
  with Replication.Aborted _ -> restore_window ()

let leader_service t (r : Replica.t) =
  let c = Replica.cal r in
  (* Degraded-mode tracking: a window opens at the first establish that
     fails (no quorum of permission acks — the leader can commit nothing
     and requests park in the queue) and closes when an establish
     succeeds or leadership is lost. Pure bookkeeping, no virtual time. *)
  let since = ref None in
  let close_degraded () =
    match !since with
    | None -> ()
    | Some t0 ->
      since := None;
      let d = Sim.Engine.now t.engine - t0 in
      t.degraded_windows <- t.degraded_windows + 1;
      t.degraded_total_ns <- t.degraded_total_ns + d;
      Metrics.quorum_regained r.Replica.metrics ~degraded_ns:d
  in
  let enter_degraded () =
    if Option.is_none !since then begin
      Metrics.quorum_lost r.Replica.metrics;
      since := Some (Sim.Engine.now t.engine)
    end
  in
  (* The election rule: a lower id alive in our own view outranks us, and
     our role fiber will demote us at its next tick. Establishing first
     would only revoke that replica's permissions and start a duel. *)
  let outranked () =
    List.exists
      (fun p -> p.Replica.pid < r.Replica.id && Election.is_alive r p.Replica.pid)
      r.Replica.peers
  in
  let rec loop () =
    if r.Replica.stop || r.Replica.removed then ()
    else begin
      (if r.Replica.role <> Replica.Leader || (r.Replica.need_new_followers && outranked ())
       then begin
         close_degraded ();
         Sim.Host.idle r.Replica.host c.Sim.Calibration.fd_read_interval
       end
       else if r.Replica.need_new_followers then begin
         if establish t r then close_degraded () else enter_degraded ()
       end
       else serve_windowed t r);
      loop ()
    end
  in
  loop ()

(* --- construction ------------------------------------------------------- *)

let create eng calibration cfg ~make_app =
  Config.validate cfg;
  let replicas = Replica.create_cluster eng calibration cfg in
  let apps = Array.init cfg.Config.n make_app in
  let t =
    {
      engine = eng;
      calibration;
      cfg;
      replicas;
      apps;
      make_app;
      incoming = Sim.Engine.Chan.create eng;
      backpressure = Recovery.Backpressure.create ~limit:cfg.Config.queue_limit;
      restarting = Hashtbl.create 4;
      rejoins = [];
      degraded_windows = 0;
      degraded_total_ns = 0;
      responses = Replica.Itbl.create 64;
      prov_requests = Hashtbl.create 64;
      establish_span = 0;
      establish_end = 0;
      next_id = cfg.Config.n;
      stopped = false;
      retries = None;
      resends = 0;
    }
  in
  Array.iter (fun r -> install_commit_hook t r) replicas;
  t

let start_replica ?(client_service = true) t (r : Replica.t) =
  Election.start r ~on_role_change:(fun _ -> ());
  Permissions.start r;
  Replayer.start r;
  Recycler.start r;
  if client_service then
    Sim.Host.spawn r.Replica.host ~name:"leader-service" (fun () -> leader_service t r)

let start ?client_service t = Array.iter (fun r -> start_replica ?client_service t r) t.replicas

let leader t =
  let leaders =
    Array.to_list t.replicas
    |> List.filter (fun r ->
           (not r.Replica.removed) && (not r.Replica.stop) && Replica.is_leader r)
  in
  match leaders with [ r ] -> Some r | [] | _ :: _ :: _ -> None

let serving_leader t =
  (* Unlike {!leader}, ignores claimants whose process is not running: a
     paused or crashed ex-leader still carries the Leader role because its
     role fiber cannot run to demote it. *)
  let candidates =
    Array.to_list t.replicas
    |> List.filter (fun r ->
           (not r.Replica.removed)
           && (not r.Replica.stop)
           && Replica.is_leader r
           && Sim.Host.liveness r.Replica.host = Sim.Host.Running)
  in
  match candidates with
  | [] -> None
  | [ r ] -> Some r
  | _ :: _ :: _ ->
    (* Competing claimants — e.g. a partitioned minority replica that
       elected itself and cannot hear the real leader demote it. The one
       actually serving holds write permission on a majority of logs
       (Appendix A.1); each log records a single holder and majorities
       intersect, so at most one claimant can qualify. *)
    let members =
      Array.to_list t.replicas
      |> List.filter (fun (r : Replica.t) -> not r.Replica.removed)
    in
    let majority = (List.length members / 2) + 1 in
    let grants (c : Replica.t) =
      List.length
        (List.filter
           (fun (r : Replica.t) -> r.Replica.perm_holder = Some c.Replica.id)
           members)
    in
    List.find_opt (fun c -> grants c >= majority) candidates

let submit_admitted ~retry t payload =
  let resp = Sim.Engine.Ivar.create t.engine in
  let prov =
    if not (Sim.Engine.provenance_on t.engine) then 0
    else begin
      (* Parent is the submitting fiber's current span, if any — the chaos
         harness wraps each client op in a span carrying (proc, key, op),
         which then labels the request in `--explain`. *)
      let span =
        Sim.Engine.span_open t.engine
          ~args:[ ("len", string_of_int (Bytes.length payload)) ]
          "request"
      in
      Hashtbl.replace t.prov_requests (Bytes.to_string payload) span;
      span
    end
  in
  let req = { payload; resp; prov; submitted = Sim.Engine.now t.engine; retry_slot = -1 } in
  Sim.Engine.Chan.send t.incoming req;
  if retry then arm_retry t req;
  resp

let submit_async ?(retry = true) t payload =
  (* Graceful degradation: a quorum-lost leader parks requests instead of
     committing them, so the incoming queue is the overload signal. Past
     the configured bound we answer immediately with a retryable error
     rather than growing the backlog without bound. *)
  if
    Recovery.Backpressure.admit t.backpressure
      ~depth:(Sim.Engine.Chan.length t.incoming)
  then submit_admitted ~retry t payload
  else begin
    Option.iter (fun l -> Metrics.shed l.Replica.metrics) (serving_leader t);
    let resp = Sim.Engine.Ivar.create t.engine in
    Sim.Engine.Ivar.fill resp (Bytes.copy retryable_error);
    resp
  end

let submit t payload = Sim.Engine.Ivar.read (submit_async t payload)

let wait_live t =
  let live = ref false in
  while not !live do
    match leader t with
    | Some r when (not r.Replica.need_new_followers) && Log.fuo r.Replica.log > 0 ->
      live := true
    | Some _ | None -> Sim.Engine.sleep t.engine 20_000
  done

let stop t =
  t.stopped <- true;
  Array.iter (fun r -> r.Replica.stop <- true) t.replicas;
  (* Pending retries would all be no-ops now: drop the requests they
     would have checked; their deadlines still fire, as no-ops. *)
  Option.iter
    (fun r ->
      Array.fill r.ring 0 (Array.length r.ring) r.none;
      r.pending <- 0)
    t.retries

(* --- membership (§5.4) -------------------------------------------------- *)

let propose_config_entry t op =
  let resp = Sim.Engine.Ivar.create t.engine in
  (* Configuration entries bypass batching: submit directly and spin until
     some leader commits the entry. *)
  let payload = encode_config_op op in
  let committed () =
    Array.exists
      (fun (r : Replica.t) ->
        (not r.Replica.removed)
        && Replica.is_leader r
        && Log.fuo r.Replica.log > 0
        &&
        let found = ref false in
        for i = max 0 (r.Replica.applied - 4) to Log.fuo r.Replica.log - 1 do
          match Log.read_slot r.Replica.log i with
          | Some { Log.value; _ } when Bytes.equal value payload -> found := true
          | Some _ | None -> ()
        done;
        !found)
      t.replicas
  in
  let rec try_commit attempts =
    if attempts = 0 then failwith "propose_config_entry: no leader committed the entry";
    (* [serving_leader], not [leader]: a crashed ex-leader keeps its stale
       Leader role forever (its role fiber cannot run to demote it), which
       would otherwise make the claimant set permanently ambiguous. *)
    match serving_leader t with
    | Some r when not r.Replica.need_new_followers -> (
      (* Run the propose on the leader's host. Applying a Remove drops the
         peer from the survivors' tables, so capture the handle first: the
         removed replica still needs to learn the entry committed (commit
         piggybacking alone would leave it waiting forever for a successor
         entry it will never receive). One final FUO bump delivers that. *)
      let removed_peer =
        match op with Remove id -> Replica.peer_opt r id | Add _ -> None
      in
      let done_ = Sim.Engine.Ivar.create t.engine in
      Sim.Host.spawn r.Replica.host ~name:"config-change" (fun () ->
          (try
             let idx = Replication.propose r payload in
             match removed_peer with
             | Some p when Rdma.Qp.state p.Replica.repl_qp = Rdma.Verbs.Rts ->
               Replication.post_fuo r p ~tag:Replica.config_tag (idx + 1)
             | Some _ | None -> ()
           with Replication.Aborted _ -> ());
          Sim.Engine.Ivar.fill done_ ());
      (* Bounded wait: if the leader's host dies mid-propose its fiber
         parks forever and [done_] never fills — time out and retry
         against the next serving leader instead of hanging. *)
      let deadline = Sim.Engine.now t.engine + 20_000_000 in
      while
        (not (Sim.Engine.Ivar.is_filled done_)) && Sim.Engine.now t.engine < deadline
      do
        Sim.Engine.sleep t.engine 50_000
      done;
      if committed () then Sim.Engine.Ivar.try_fill resp () |> ignore
      else begin
        Sim.Engine.sleep t.engine 100_000;
        try_commit (attempts - 1)
      end)
    | Some _ | None ->
      Sim.Engine.sleep t.engine 100_000;
      try_commit (attempts - 1)
  in
  try_commit 100;
  Sim.Engine.Ivar.read resp

let remove_replica t ~id = propose_config_entry t (Remove id)

(* A replica [id] not yet wired, in this cluster's durable namespace. *)
let fresh_incarnation t ~id =
  Replica.create_unwired t.engine t.calibration t.cfg ~ns:t.replicas.(0).Replica.durable_ns ~id

let add_replica t () =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  propose_config_entry t (Add id);
  let newcomer = fresh_incarnation t ~id in
  Array.iter
    (fun r -> if not r.Replica.removed then Replica.wire r newcomer)
    t.replicas;
  t.replicas <- Array.append t.replicas [| newcomer |];
  (* The newcomer runs its own app object, as a restarted replica does;
     its state then comes from the checkpoint. *)
  t.apps <- Array.append t.apps [| t.make_app id |];
  install_commit_hook t newcomer;
  (match leader t with
  | Some l ->
    ignore (install_checkpoint t ~source:(follower_source t ~l id) newcomer);
    l.Replica.need_new_followers <- true
  | None -> ());
  start_replica t newcomer;
  newcomer

(* --- crash recovery: restart + rejoin (tying §5.4 to durable state) ----- *)

(* Durable logs survive a crash with a tail of accepted-but-undecided
   entries at indices at or past the restored FUO. Those may conflict
   with values the cluster decided while we were down, and a follower's
   replayer would otherwise self-advance over them as if they were
   decided. Accepts land contiguously from the FUO, so zeroing forward
   until the first empty slot erases exactly the undecided tail; the
   recycler's slack guarantees a zeroed gap exists before the scan could
   wrap into retained decided entries. *)
let truncate_undecided (log : Log.t) =
  let slots = Log.slots log in
  let fuo = Log.fuo log in
  let idx = ref fuo in
  while !idx < fuo + slots && Bytes.get_int64_le (Log.read_slot_raw log !idx) 0 <> 0L do
    Log.zero_slot_local log !idx;
    incr idx
  done

(* Catch-up pacing: a rejoining replica pulls [rejoin_batch] entries per
   round and idles [rejoin_idle] ns after each full round, bounding the
   read pressure it puts on the leader's NIC. *)
let rejoin_batch = 64
let rejoin_idle = 20_000

let rejoin_fiber t (newcomer : Replica.t) ~t0 ~span =
  let e = t.engine in
  let id = newcomer.Replica.id in
  let log = newcomer.Replica.log in
  let slot_size = Log.slot_size log in
  let stopped () = newcomer.Replica.stop || newcomer.Replica.removed in
  let leader_peer () =
    match serving_leader t with
    | Some l when l.Replica.id <> id -> Replica.peer_opt newcomer l.Replica.id
    | Some _ | None -> None
  in
  (* Catch-up reads ride the replication QP — always readable (§5.2) —
     and this fiber is the sole consumer of the newcomer's replication CQ
     until the replica starts at parity. *)
  let read_remote (p : Replica.peer) ~src_off ~len ~dst =
    if Rdma.Qp.state p.Replica.repl_qp <> Rdma.Verbs.Rts then false
    else begin
      Rdma.Qp.post_read p.Replica.repl_qp ~wr_id:(Replica.fresh_wr_id newcomer)
        ~dst ~dst_off:0 ~len ~mr:p.Replica.remote_log_mr ~src_off;
      let wc = Rdma.Cq.await newcomer.Replica.repl_cq in
      wc.Rdma.Verbs.status = Rdma.Verbs.Success
    end
  in
  let publish_head () =
    Rdma.Mr.set_int newcomer.Replica.bg_mr ~off:Replica.bg_log_head_offset
      newcomer.Replica.applied
  in
  let target () =
    match leader_peer () with
    | None -> None
    | Some p ->
      let buf = Bytes.create 8 in
      if read_remote p ~src_off:Log.fuo_offset ~len:8 ~dst:buf then
        Some (Int64.to_int (Bytes.get_int64_le buf 0))
      else None
  in
  let pull idx =
    match leader_peer () with
    | None -> Recovery.Catchup.Unreachable
    | Some p ->
      let buf = Bytes.create slot_size in
      if not (read_remote p ~src_off:(Log.slot_offset log idx) ~len:slot_size ~dst:buf)
      then Recovery.Catchup.Unreachable
      else (
        match Log.decode_slot log buf with
        | Some _ -> Recovery.Catchup.Entry buf
        | None -> Recovery.Catchup.Recycled)
  in
  let install idx img = Log.write_slot_raw_local log idx img in
  let commit idx =
    Log.set_fuo log idx;
    Replica.apply_committed newcomer;
    publish_head ()
  in
  let recheckpoint () =
    match serving_leader t with
    | None -> ()
    | Some l -> ignore (install_checkpoint t ~source:(follower_source t ~l id) newcomer)
  in
  (* Recover the application first: replay the durable log up to its
     first missing entry (the pure durable-restore path). The FUO stops
     there. A log the recycler zeroed at its start needs a fresh
     checkpoint (§5.4): take it now if a leader serves, else catch-up
     takes it once one does. *)
  let restore () =
    if stopped () then false
    else begin
      let durable_fuo = Log.fuo log in
      stop_fuo_at_gap newcomer;
      if Log.fuo log < durable_fuo then recheckpoint ();
      Replica.apply_committed newcomer;
      publish_head ();
      true
    end
  in
  let finish outcome_args =
    if span <> 0 then Sim.Engine.span_close e ~pid:id ~args:outcome_args span;
    Hashtbl.remove t.restarting id
  in
  if not (restore ()) then finish [ ("outcome", "stopped") ]
  else begin
    if span <> 0 then
      Sim.Engine.span_point e ~pid:id ~span "restored"
        ~args:[ ("applied", string_of_int newcomer.Replica.applied) ];
    match
      Recovery.Catchup.run ~batch:rejoin_batch ~idle_ns:rejoin_idle
        ~idle:(fun ns -> Sim.Host.idle newcomer.Replica.host ns)
        ~target
        ~fuo:(fun () -> Log.fuo log)
        ~pull ~install ~commit ~recheckpoint ~stopped ()
    with
    | Recovery.Catchup.Stopped _ -> finish [ ("outcome", "stopped") ]
    | Recovery.Catchup.Parity p ->
      let now = Sim.Engine.now e in
      t.rejoins <-
        {
          pid = id;
          restarted_at = t0;
          parity_at = now;
          entries_pulled = p.Recovery.Catchup.entries;
          pull_rounds = p.Recovery.Catchup.rounds;
          recheckpoints = p.Recovery.Catchup.recheckpoints;
        }
        :: t.rejoins;
      Metrics.rejoined newcomer.Replica.metrics ~parity_ns:(now - t0)
        ~entries:p.Recovery.Catchup.entries;
      if Sim.Engine.traced e then
        Sim.Engine.trace_instant e ~cat:"mu" ~pid:id
          ~args:
            [ ("entries", string_of_int p.Recovery.Catchup.entries);
              ("ns", string_of_int (now - t0)) ]
          "rejoin_parity";
      (* At log parity, start the planes, release the floor score the
         rewiring pinned on the survivors, and ask the current leader to
         grow its confirmed-follower set: its next establish() writes us
         a permission request, our permission fiber acks it, and
         Listing 6 pushes any entries decided during the hand-off. If we
         are now the lowest live id, the survivors see us alive at once
         and the current leader yields instead (see [leader_service]), so
         fail-back is a single hand-off. *)
      start_replica t newcomer;
      Array.iter
        (fun (r : Replica.t) ->
          if r.Replica.id <> id && not r.Replica.removed then Election.readmit r id)
        t.replicas;
      (match serving_leader t with
      | Some l when l.Replica.id <> id -> l.Replica.need_new_followers <- true
      | Some _ | None -> ());
      finish
        [ ("outcome", "parity");
          ("entries", string_of_int p.Recovery.Catchup.entries) ]
  end

let restart_fiber t id =
  let old_r = t.replicas.(id) in
  if
    Hashtbl.mem t.restarting id
    || (Sim.Host.process_alive old_r.Replica.host && not old_r.Replica.stop)
  then () (* already running, or a restart is already in flight *)
  else begin
    Hashtbl.replace t.restarting id ();
    Metrics.restart old_r.Replica.metrics;
    let e = t.engine in
    let t0 = Sim.Engine.now e in
    let span =
      if Sim.Engine.provenance_on e then
        Sim.Engine.span_open e ~pid:id ~parent:0
          ~args:[ ("host", string_of_int id) ]
          "rejoin"
      else 0
    in
    (* 1. Re-admission. A replica that was killed but never removed is
       still a member — no configuration entry is needed (and requiring
       one would deadlock quorum restoration: the entry could not commit
       without the very replica that is rejoining). Only a previously
       *removed* replica must be re-added through a §5.4 configuration
       entry; the cluster may be mid-fail-over, so retry until some
       serving leader commits it. *)
    let rec admit attempts =
      match propose_config_entry t (Add id) with
      | () -> true
      | exception Failure _ ->
        if attempts <= 1 then false
        else begin
          Sim.Engine.sleep e 1_000_000;
          admit (attempts - 1)
        end
    in
    if old_r.Replica.removed && not (admit 10) then begin
      (* No leader for the whole window — give up; a later restart event
         can try again. *)
      if span <> 0 then
        Sim.Engine.span_close e ~pid:id ~args:[ ("outcome", "no_leader") ] span;
      Hashtbl.remove t.restarting id
    end
    else begin
      (* 2. Fresh incarnation on a new host; with durable state on, the
         log MR restores from NVM and the undecided tail is truncated. *)
      let newcomer = fresh_incarnation t ~id in
      truncate_undecided newcomer.Replica.log;
      let durable_fuo = Log.fuo newcomer.Replica.log in
      (* 3. Rewire the survivors to the new incarnation: tear down every
         stale connection to the dead host, connect fresh QPs, and pin
         the newcomer's score at the floor so elections ignore it until
         it reaches log parity, where [rejoin_fiber] releases it. No yield
         happens in this block, so no fiber observes a half-wired
         cluster. *)
      let config_floor = ref 0 in
      Array.iter
        (fun (r : Replica.t) ->
          if r.Replica.id <> id && not r.Replica.removed then begin
            Replica.unwire r ~pid:id;
            Replica.wire r newcomer;
            Replica.Itbl.replace r.Replica.scores id
              t.calibration.Sim.Calibration.score_min;
            Replica.Itbl.replace r.Replica.alive id false;
            if Sim.Host.process_alive r.Replica.host then
              config_floor := max !config_floor (Log.fuo r.Replica.log)
          end)
        t.replicas;
      t.replicas.(id) <- newcomer;
      t.apps.(id) <- t.make_app id;
      (* Configuration entries already reflected in the membership just
         reconstructed must not re-apply during replay; the floor is the
         highest FUO any live member has at wiring time (no yield since). *)
      install_commit_hook ~config_floor:!config_floor t newcomer;
      if span <> 0 then
        Sim.Engine.span_point e ~pid:id ~span "rewired"
          ~args:[ ("durable_fuo", string_of_int durable_fuo) ];
      (* 4. Restore state and catch up at bounded rate on the new host's
         own fibers, then rejoin the confirmed-follower set. *)
      Sim.Host.spawn newcomer.Replica.host ~name:"rejoin" (fun () ->
          rejoin_fiber t newcomer ~t0 ~span)
    end
  end

let restart_replica t ~id =
  if id < 0 || id >= Array.length t.replicas then
    invalid_arg (Printf.sprintf "Smr.restart_replica: unknown replica %d" id);
  (* Callable from scheduler context (the fault injector's callback runs
     there); the pipeline itself needs a fiber. *)
  Sim.Engine.spawn t.engine ~name:(Printf.sprintf "restart-%d" id) ~pid:id
    (fun () -> restart_fiber t id)

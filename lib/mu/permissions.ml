let log_src = Logs.Src.create "mu.permissions" ~doc:"Permission management plane"

module L = (val Logs.src_log log_src : Logs.LOG)

let poll_interval = 2_000

let read_req t id = Rdma.Mr.get_i64 t.Replica.bg_mr ~off:(Replica.bg_req_offset id)
let read_ack t id = Rdma.Mr.get_i64 t.Replica.bg_mr ~off:(Replica.bg_ack_offset id)

let last_granted t id =
  Option.value (Replica.Itbl.find_opt t.Replica.last_granted id) ~default:0L

(* Change the access our replication QP toward [pid] grants, using Mu's
   fast-slow path. The slow path reconnects the pair, so a requester whose
   end went to ERR (say, when we NAKed it as a deposed leader) gets a
   working connection with its grant. *)
let switch_access t pid access =
  match Replica.peer_opt t pid with
  | None -> ()
  | Some p -> (
    let m = t.Replica.metrics in
    match Rdma.Perm.fast_slow_switch p.Replica.repl_qp access with
    | `Fast -> m.Metrics.perm_fast_path <- m.Metrics.perm_fast_path + 1
    | `Slow -> m.Metrics.perm_slow_path <- m.Metrics.perm_slow_path + 1)

let revoke_current_holder t ~except =
  match t.Replica.perm_holder with
  | Some holder when holder <> except && holder <> t.Replica.id ->
    switch_access t holder Rdma.Verbs.access_ro;
    t.Replica.perm_holder <- None
  | Some _ | None -> ()

let write_ack t requester gen =
  if requester = t.Replica.id then
    Rdma.Mr.set_i64 t.Replica.bg_mr ~off:(Replica.bg_ack_offset t.Replica.id) gen
  else begin
    let p = Replica.peer t requester in
    let buf = Bytes.create 8 in
    Bytes.set_int64_le buf 0 gen;
    Rdma.Qp.post_write p.Replica.perm_qp ~wr_id:(Replica.fresh_wr_id t) ~src:buf ~src_off:0
      ~len:8 ~mr:p.Replica.remote_bg_mr ~dst_off:(Replica.bg_ack_offset t.Replica.id);
    (* This fiber is the sole consumer of the perm CQ; the outcome does not
       matter (a dead requester simply never reads the ack). *)
    ignore (Rdma.Cq.await p.Replica.perm_cq)
  end

let handle_request t requester gen =
  L.debug (fun m ->
      m "t=%dns replica %d grants write access to %d (gen %Ld)"
        (Sim.Engine.now (Replica.engine t))
        t.Replica.id requester gen);
  Replica.phase t ~args:[ ("requester", string_of_int requester) ] "perm_grant" @@ fun () ->
  t.Replica.metrics.Metrics.permission_grants <-
    t.Replica.metrics.Metrics.permission_grants + 1;
  revoke_current_holder t ~except:requester;
  if requester <> t.Replica.id then switch_access t requester Rdma.Verbs.access_rw;
  t.Replica.perm_holder <- Some requester;
  Replica.Itbl.replace t.Replica.last_granted requester gen;
  write_ack t requester gen

let pending_request t =
  (* Requests are served in requester-id order (§5.2). *)
  let ids = t.Replica.id :: List.map (fun p -> p.Replica.pid) t.Replica.peers in
  let ids = List.sort compare ids in
  List.find_map
    (fun id ->
      let gen = read_req t id in
      if Int64.compare gen (last_granted t id) > 0 then Some (id, gen) else None)
    ids

let start t =
  Sim.Host.spawn t.Replica.host ~name:"perm-mgmt" (fun () ->
      let host = t.Replica.host in
      let rec loop () =
        if t.Replica.stop || t.Replica.removed then ()
        else begin
          Sim.Host.arm t.Replica.perm_bell;
          (* After serving a request the thread rescans one interval later,
             so same-instant requests are served one poll apart; an empty
             scan parks until the request array is written. *)
          (match pending_request t with
          | Some (requester, gen) ->
            handle_request t requester gen;
            Sim.Host.idle host poll_interval
          | None -> Sim.Host.park t.Replica.perm_bell ~period:poll_interval);
          loop ()
        end
      in
      loop ())

let request_permissions t =
  t.Replica.metrics.Metrics.permission_requests <-
    t.Replica.metrics.Metrics.permission_requests + 1;
  t.Replica.req_gen <- Int64.add t.Replica.req_gen 1L;
  let gen = t.Replica.req_gen in
  (* Local request first: fences out the previous holder of our own log. *)
  Rdma.Mr.set_i64 t.Replica.bg_mr ~off:(Replica.bg_req_offset t.Replica.id) gen;
  let buf = Bytes.create 8 in
  Bytes.set_int64_le buf 0 gen;
  List.iter
    (fun p ->
      (* Requests ride their own QP pair; completions are not awaited — the
         grant is observed through the ack array. A pair in ERR flushes
         the request; the failure detector reconnects it. *)
      Rdma.Qp.post_write p.Replica.req_qp ~wr_id:(Replica.fresh_wr_id t) ~src:buf ~src_off:0
        ~len:8 ~mr:p.Replica.remote_bg_mr ~dst_off:(Replica.bg_req_offset t.Replica.id))
    t.Replica.peers;
  gen

let acked t ~gen =
  let self = if Int64.equal (read_ack t t.Replica.id) gen then [ t.Replica.id ] else [] in
  List.fold_left
    (fun acc p ->
      let id = p.Replica.pid in
      if Int64.equal (read_ack t id) gen then id :: acc else acc)
    self t.Replica.peers
  |> List.sort compare

type role = Leader | Follower

(* No protocol code iterates these tables, so their hash decides no
   order; the identity suits keys that are small or sequential (peer
   ids, work-request ids, slot indices). *)
module Itbl = Hashtbl.Make (struct include Int let hash x = x land max_int end)

type peer = {
  pid : int;
  repl_qp : Rdma.Qp.t;
  fd_qp : Rdma.Qp.t;
  fd_cq : Rdma.Cq.t;
  perm_qp : Rdma.Qp.t;
  perm_cq : Rdma.Cq.t;
  req_qp : Rdma.Qp.t;
  req_cq : Rdma.Cq.t;
  misc_qp : Rdma.Qp.t;
  misc_cq : Rdma.Cq.t;
  remote_log_mr : Rdma.Mr.t;
  remote_bg_mr : Rdma.Mr.t;
}

type t = {
  config : Config.t;
  durable_ns : int;
  host : Sim.Host.t;
  id : int;
  log : Log.t;
  bg_mr : Rdma.Mr.t;
  repl_cq : Rdma.Cq.t;
  mutable peers : peer list;
  mutable leader_estimate : int;
  scores : int Itbl.t;
  alive : bool Itbl.t;
  last_hb : int Itbl.t;
  mutable role : role;
  mutable role_generation : int;
  mutable perm_holder : int option;
  last_granted : int64 Itbl.t;
  mutable req_gen : int64;
  mutable confirmed : int list;
  mutable need_new_followers : bool;
  mutable prop_num : int64;
  mutable skip_prepare : bool;
  mutable wr_seq : int;
  mutable tag_seq : int;
  inflight : (int * int) Itbl.t;
  mutable propose_started_at : int option;
  mutable hb_started : bool;
  mutable hb_value : int;
  mutable hb_next : int;
  mutable hb_last : int;
  mutable election_span : int;
  mutable applied : int;
  mutable on_commit : int -> bytes -> unit;
  mutable checkpoint : src:int -> dst:int -> int;
  mutable zeroed_up_to : int;
  mutable recycler_outstanding : int;
  metrics : Metrics.t;
  mutable removed : bool;
  mutable stop : bool;
  replay_bell : Sim.Host.doorbell;
  perm_bell : Sim.Host.doorbell;
  ack_bell : Sim.Host.doorbell;
}

(* Background-plane layout: heartbeat counter, log head, then the
   permission request and ack arrays indexed by replica id. Arrays are
   sized generously (64 replicas) so membership additions need no
   re-registration. *)
let max_replicas = 64
let bg_hb_offset = 0
let bg_log_head_offset = 8
let bg_req_offset id = 16 + (8 * id)
let bg_ack_offset id = 16 + (8 * max_replicas) + (8 * id)
let bg_size ~n:_ = 16 + (16 * max_replicas)

let engine t = Sim.Host.engine t.host
let cal t = Sim.Host.calibration t.host

(* A trace span's end event is emitted even when the phase aborts
   (trace_span uses Fun.protect), so traces of failed rounds stay
   well-nested. With provenance on, the phase is also a stack-scoped
   provenance span: nested phases parent naturally, and the RDMA posts
   issued inside become its per-peer children. *)
let phase t ?args name f =
  let e = engine t in
  Sim.Engine.span_scope e ~pid:t.id ?args name @@ fun () ->
  Sim.Engine.trace_span e ~cat:"mu" ~pid:t.id ?args name f

(* The heartbeat counter (§5.1), computed when it is read. It advances
   by one at every instant of its grid ([hb_next], then every
   [hb_increment_interval]) while the host runs and the replica is
   started, not stopped and not removed. With fate sharing, an instant
   more than [fate_sharing_stuck_after] into a propose call is skipped.
   Those inputs only change through the setters below and the host's
   liveness hook, each of which settles the counter first, so between
   two settles they are constant and the ticks can be counted at once.
   Ticks at the current instant count, each instant at most once
   ([hb_last]). *)
let settle_heartbeat t =
  let now = Sim.Engine.now (engine t) in
  let running =
    match Sim.Host.liveness t.host with
    | Sim.Host.Running -> true
    | Sim.Host.Paused | Sim.Host.Process_stopped | Sim.Host.Host_dead -> false
  in
  if t.hb_next <= now && t.hb_started && (not t.stop) && (not t.removed) && running then begin
    let period = (cal t).Sim.Calibration.hb_increment_interval in
    let last =
      match t.propose_started_at with
      | Some started when t.config.Config.fate_sharing ->
        Int.min now (started + t.config.Config.fate_sharing_stuck_after)
      | Some _ | None -> now
    in
    if last >= t.hb_next then begin
      let skipped = (last - t.hb_next) / period in
      t.hb_value <- t.hb_value + skipped + 1;
      t.hb_last <- t.hb_next + (skipped * period);
      Rdma.Mr.set_int t.bg_mr ~off:bg_hb_offset t.hb_value
    end;
    t.hb_next <- t.hb_next + ((((now - t.hb_next) / period) + 1) * period)
  end

let start_heartbeat t =
  t.hb_started <- true;
  t.hb_next <- Sim.Engine.now (engine t)

let set_propose_started_at t v =
  settle_heartbeat t;
  t.propose_started_at <- v

let halt ?(removed = false) t =
  settle_heartbeat t;
  t.stop <- true;
  if removed then t.removed <- true

(* NVM regions are keyed by owner id; with several clusters on one
   engine (§8 sharding) the replica id alone would collide, so the
   cluster's durable namespace is folded into the owner. *)
let durable_owner ~ns ~id = (ns * max_replicas) + id

let create_unwired eng calib config ~ns ~id =
  Config.validate config;
  let host = Sim.Host.create eng calib ~id ~name:(Printf.sprintf "replica%d" id) in
  let log_size =
    Log.required_size ~slots:config.Config.log_slots ~value_cap:config.Config.value_cap
  in
  (* With durable state on, the log MR is registered directly over the
     host's NVM region: every slot write and the FUO header are
     write-through durable, and a region left by a previous incarnation
     of this id is picked up as-is — a rebooted replica comes up with its
     pre-crash log already in place. *)
  let log_mem =
    if config.Config.durable_state then
      Some
        (Recovery.Durable.log_backing (Sim.Engine.nvm eng)
           ~owner:(durable_owner ~ns ~id) ~size:log_size)
    else None
  in
  let log_mr =
    Rdma.Mr.register ~persistent:config.Config.persistent_log ?mem:log_mem host
      ~size:log_size ~access:Rdma.Verbs.access_rw
  in
  let bg_mr =
    Rdma.Mr.register host ~size:(bg_size ~n:config.Config.n) ~access:Rdma.Verbs.access_rw
  in
  let t =
    {
      config;
      durable_ns = ns;
      host;
      id;
      log =
        (* The one place the canary mode is chosen: every decode reads it
           from the log. *)
        Log.attach
          ~canary:(if config.Config.checksum_canary then Log.Checksum else Log.Flag)
          log_mr ~slots:config.Config.log_slots ~value_cap:config.Config.value_cap;
      bg_mr;
      repl_cq = Rdma.Cq.create eng;
      peers = [];
      leader_estimate = 0;
      scores = Itbl.create 8;
      alive = Itbl.create 8;
      last_hb = Itbl.create 8;
      role = Follower;
      role_generation = 0;
      perm_holder = None;
      last_granted = Itbl.create 8;
      req_gen = 0L;
      confirmed = [];
      need_new_followers = true;
      prop_num = 0L;
      skip_prepare = false;
      wr_seq = 0;
      tag_seq = 0;
      inflight = Itbl.create 64;
      propose_started_at = None;
      hb_started = false;
      hb_value = 0;
      hb_next = 0;
      hb_last = min_int;
      election_span = 0;
      applied = 0;
      on_commit = (fun _ _ -> ());
      checkpoint = (fun ~src:_ ~dst:_ -> 0);
      zeroed_up_to = 0;
      recycler_outstanding = 0;
      metrics = Metrics.create ?reg:(Sim.Engine.metrics eng) ~id ();
      removed = false;
      stop = false;
      replay_bell = Sim.Host.doorbell host;
      perm_bell = Sim.Host.doorbell host;
      ack_bell = Sim.Host.doorbell host;
    }
  in
  (* A leader applies its own commits, so only a follower's log stores
     can give its replayer work. *)
  Rdma.Mr.watch log_mr ~off:0 ~len:log_size (fun ~off:_ ~len:_ ->
      if t.role = Follower then Sim.Host.ring t.replay_bell);
  Rdma.Mr.watch bg_mr ~off:(bg_req_offset 0) ~len:(8 * max_replicas) (fun ~off:_ ~len:_ ->
      Sim.Host.ring t.perm_bell);
  Rdma.Mr.watch bg_mr ~off:(bg_ack_offset 0) ~len:(8 * max_replicas) (fun ~off:_ ~len:_ ->
      Sim.Host.ring t.ack_bell);
  Rdma.Mr.on_read bg_mr ~off:bg_hb_offset (fun () -> settle_heartbeat t);
  (* A resume restarts the grid at its instant, unless a pause at that
     same instant has already counted it. *)
  Sim.Host.on_liveness host (fun next ->
      settle_heartbeat t;
      match next with
      | Sim.Host.Running ->
        let now = Sim.Engine.now eng in
        t.hb_next <-
          (if t.hb_last = now then now + calib.Sim.Calibration.hb_increment_interval else now)
      | Sim.Host.Paused | Sim.Host.Process_stopped | Sim.Host.Host_dead -> ());
  t

(* Who is wired in decides whose requests the permission manager serves
   and how many acks make a majority. *)
let membership_changed t =
  Sim.Host.ring t.perm_bell;
  Sim.Host.ring t.ack_bell

let already_wired a b = List.exists (fun p -> p.pid = b.id) a.peers

(* Persist the member list this replica currently sees (self + peers) to
   its durable meta region; no-op when durable state is off. Pure memory
   writes — no virtual time, no randomness. *)
let persist_members t =
  if t.config.Config.durable_state then begin
    let meta =
      Recovery.Durable.meta_backing
        (Sim.Engine.nvm (engine t))
        ~owner:(durable_owner ~ns:t.durable_ns ~id:t.id)
    in
    Recovery.Durable.write_members meta (t.id :: List.map (fun p -> p.pid) t.peers)
  end

let wire a b =
  if a.id = b.id then invalid_arg "Replica.wire: cannot wire a replica to itself";
  if already_wired a b then ()
  else begin
    let eng = engine a in
    let mk_pair cq_a cq_b =
      let qa = Rdma.Qp.create a.host ~cq:cq_a and qb = Rdma.Qp.create b.host ~cq:cq_b in
      Rdma.Qp.connect qa qb;
      (qa, qb)
    in
    (* Replication plane: per-replica shared CQ; background channels get a
       CQ per purpose so each protocol fiber is the sole consumer of its
       completions. *)
    let repl_a, repl_b = mk_pair a.repl_cq b.repl_cq in
    (* The replication QP starts read-only: reads are always safe; writes
       require a permission grant (§5.2). *)
    Rdma.Qp.set_access repl_a Rdma.Verbs.access_ro;
    Rdma.Qp.set_access repl_b Rdma.Verbs.access_ro;
    let fd_cq_a = Rdma.Cq.create eng and fd_cq_b = Rdma.Cq.create eng in
    let fd_a, fd_b = mk_pair fd_cq_a fd_cq_b in
    let perm_cq_a = Rdma.Cq.create eng and perm_cq_b = Rdma.Cq.create eng in
    let perm_a, perm_b = mk_pair perm_cq_a perm_cq_b in
    let req_cq_a = Rdma.Cq.create eng and req_cq_b = Rdma.Cq.create eng in
    let req_a, req_b = mk_pair req_cq_a req_cq_b in
    let misc_cq_a = Rdma.Cq.create eng and misc_cq_b = Rdma.Cq.create eng in
    let misc_a, misc_b = mk_pair misc_cq_a misc_cq_b in
    (* Background-plane QPs are always fully open (§3.2). *)
    List.iter
      (fun qp -> Rdma.Qp.set_access qp Rdma.Verbs.access_rw)
      [ fd_a; fd_b; perm_a; perm_b; req_a; req_b; misc_a; misc_b ];
    let peer_of_b =
      {
        pid = b.id;
        repl_qp = repl_a;
        fd_qp = fd_a;
        fd_cq = fd_cq_a;
        perm_qp = perm_a;
        perm_cq = perm_cq_a;
        req_qp = req_a;
        req_cq = req_cq_a;
        misc_qp = misc_a;
        misc_cq = misc_cq_a;
        remote_log_mr = Log.mr b.log;
        remote_bg_mr = b.bg_mr;
      }
    in
    let peer_of_a =
      {
        pid = a.id;
        repl_qp = repl_b;
        fd_qp = fd_b;
        fd_cq = fd_cq_b;
        perm_qp = perm_b;
        perm_cq = perm_cq_b;
        req_qp = req_b;
        req_cq = req_cq_b;
        misc_qp = misc_b;
        misc_cq = misc_cq_b;
        remote_log_mr = Log.mr a.log;
        remote_bg_mr = a.bg_mr;
      }
    in
    let insert ps p = List.sort (fun x y -> compare x.pid y.pid) (p :: ps) in
    a.peers <- insert a.peers peer_of_b;
    b.peers <- insert b.peers peer_of_a;
    membership_changed a;
    membership_changed b;
    persist_members a;
    persist_members b
  end

let iter_qps f p =
  f p.repl_qp; f p.fd_qp; f p.perm_qp; f p.req_qp; f p.misc_qp

let unwire t ~pid =
  match List.find_opt (fun p -> p.pid = pid) t.peers with
  | None -> ()
  | Some p ->
    iter_qps Rdma.Qp.disconnect p;
    t.peers <- List.filter (fun q -> q.pid <> pid) t.peers;
    (* Volatile per-peer state must go with the connection. In particular
       a rebooted incarnation of [pid] restarts its permission request
       generation at zero, so keeping the stale last-granted generation
       would make this replica ignore its permission requests forever.
       The request it last wrote into our background MR goes too: left in
       place, our permission fiber would grant it to the new incarnation
       the moment it is rewired, revoking whoever serves now. *)
    Itbl.remove t.last_granted pid;
    Rdma.Mr.set_i64 t.bg_mr ~off:(bg_req_offset pid) 0L;
    Itbl.remove t.last_hb pid;
    Itbl.remove t.scores pid;
    Itbl.remove t.alive pid;
    membership_changed t;
    let confirmed = List.filter (fun i -> i <> pid) t.confirmed in
    if confirmed <> t.confirmed then begin
      t.confirmed <- confirmed;
      t.need_new_followers <- true
    end;
    persist_members t

let create_cluster eng calib config =
  let ns =
    if config.Config.durable_state then Sim.Nvm.fresh_namespace (Sim.Engine.nvm eng) else 0
  in
  let replicas = Array.init config.Config.n (fun id -> create_unwired eng calib config ~ns ~id) in
  Array.iteri
    (fun i a -> Array.iteri (fun j b -> if i < j then wire a b) replicas)
    replicas;
  replicas

let peer_opt t id = List.find_opt (fun p -> p.pid = id) t.peers

let peer t id =
  match peer_opt t id with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Replica.peer: replica %d has no peer %d" t.id id)

(* Tags in [inflight] identify which plane posted a work request on the
   shared replication CQ. Positive tags are propose/catch-up rounds
   ([fresh_tag]); the reserved negative tags below mark background
   writes whose completions the propose path reaps on the posting
   plane's behalf; windowed accept groups take the tags below those
   ([group_tag]). The three ranges are disjoint, so a straggler
   completion of one round never counts as another's ack. *)
let recycler_tag = -2
let config_tag = -3
let group_tag first = -4 - first

let fresh_wr_id t =
  t.wr_seq <- t.wr_seq + 1;
  t.wr_seq

let fresh_tag t =
  t.tag_seq <- t.tag_seq + 1;
  t.tag_seq

let is_leader t = t.role = Leader

let set_role t role =
  t.role <- role;
  Sim.Host.ring t.replay_bell

let majority t = ((List.length t.peers + 1) / 2) + 1

let fresh_prop_num t ~above =
  (* Proposal numbers are congruent to the replica id modulo a fixed
     stride, so distinct leaders never collide. *)
  let stride = Int64.of_int max_replicas in
  let id = Int64.of_int t.id in
  let above = Int64.max above t.prop_num in
  let k = Int64.div above stride in
  let candidate = Int64.add (Int64.mul (Int64.add k 1L) stride) id in
  let candidate =
    if Int64.compare candidate above > 0 then candidate
    else Int64.add candidate stride
  in
  t.prop_num <- candidate;
  candidate

let apply_committed t =
  let fuo = Log.fuo t.log in
  while t.applied < fuo do
    (match Log.read_slot t.log t.applied with
    | Some { Log.value; _ } ->
      t.metrics.Metrics.entries_applied <- t.metrics.Metrics.entries_applied + 1;
      t.on_commit t.applied value
    | None ->
      (* A decided slot below the FUO is never empty (Lemma A.11). *)
      invalid_arg
        (Printf.sprintf "replica %d: hole at applied index %d (fuo %d)" t.id t.applied fuo));
    t.applied <- t.applied + 1;
    (* Publish the new log head for the recycler (§5.3). *)
    Rdma.Mr.set_int t.bg_mr ~off:bg_log_head_offset t.applied
  done

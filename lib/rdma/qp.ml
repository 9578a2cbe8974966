(* Shared by both ends of a pair. [retired] marks a pair that
   {!disconnect} tore down for good; [cycling] a pair that {!reconnect}
   is taking through reset → init → RTR → RTS. *)
type link = { mutable up : bool; mutable retired : bool; mutable cycling : bool }

(* A posted receive buffer awaiting a Send from the peer. *)
type recv = { rwr_id : int; rdst : Bytes.t; rdst_off : int; rmax_len : int }

(* A Send that arrived before any receive was posted: under RC the
   requester NIC retries (RNR-NAK) until the responder posts a buffer. *)
type pending_send = { payload : Bytes.t; complete : arrived_at:int -> len:int -> unit }

(* Telemetry handles, per-host labels (one instrument shared by all of a
   host's QPs — per-QP labels would explode cardinality). *)
type qp_tel = {
  posted : Telemetry.Registry.counter;
  completed : Telemetry.Registry.counter;
  outstanding_g : Telemetry.Registry.gauge;
}

type t = {
  host : Sim.Host.t;
  cq : Cq.t;
  tel : qp_tel option;
  mutable peer : t option;
  mutable state : Verbs.qp_state;
  mutable acc : Verbs.access;
  mutable outstanding : int;
  mutable last_arrival : int;  (* monotonic arrival clock at the responder *)
  mutable last_completion : int;  (* monotonic completion clock at the requester *)
  mutable link : link;
  recvq : recv Queue.t;
  pending_sends : pending_send Queue.t;
}

let create host ~cq =
  let tel =
    match Sim.Engine.metrics (Sim.Host.engine host) with
    | None -> None
    | Some reg ->
      let labels = [ ("host", Sim.Host.name host) ] in
      Some
        {
          posted = Telemetry.Registry.counter reg ~help:"Work requests posted" ~labels
              "rdma_wr_posted_total";
          completed = Telemetry.Registry.counter reg ~help:"Work completions delivered" ~labels
              "rdma_wr_completed_total";
          outstanding_g = Telemetry.Registry.gauge reg ~help:"Posted-but-uncompleted WRs" ~labels
              "rdma_wr_outstanding";
        }
  in
  {
    host;
    cq;
    tel;
    peer = None;
    state = Verbs.Reset;
    acc = Verbs.access_none;
    outstanding = 0;
    last_arrival = 0;
    last_completion = 0;
    link = { up = true; retired = false; cycling = false };
    recvq = Queue.create ();
    pending_sends = Queue.create ();
  }

let connect a b =
  if a.peer <> None || b.peer <> None then invalid_arg "Qp.connect: already connected";
  a.peer <- Some b;
  b.peer <- Some a;
  let link = { up = true; retired = false; cycling = false } in
  a.link <- link;
  b.link <- link;
  a.state <- Verbs.Rts;
  b.state <- Verbs.Rts

let host t = t.host
let peer t = t.peer
let state t = t.state
let pair_rts t =
  t.state = Verbs.Rts && match t.peer with Some p -> p.state = Verbs.Rts | None -> false
let access t = t.acc
let set_access t acc = t.acc <- acc

let engine t = Sim.Host.engine t.host
let cal t = Sim.Host.calibration t.host

(* Transitions into ERR are the observable edge the failure detector and
   permission slow path react to, so they get an instant probe event. *)
let mark_err t =
  if t.state <> Verbs.Err then begin
    t.state <- Verbs.Err;
    let e = engine t in
    if Sim.Engine.traced e then
      Sim.Engine.trace_instant e ~cat:"rdma" ~pid:(Sim.Host.id t.host) "qp_err"
  end

let set_state t s = if s = Verbs.Err then mark_err t else t.state <- s

(* Tear down a connection for good: both endpoints go to ERR and stay
   there, since a disconnected pair is replaced by fresh QPs (the
   re-establishment path a host takes after a reboot), never reconnected.
   Posted-but-undelivered operations still complete, with whatever status
   the transport assigns them. *)
let disconnect t =
  t.link.retired <- true;
  mark_err t;
  match t.peer with Some p -> mark_err p | None -> ()
let outstanding t = t.outstanding
let set_link_up t up = t.link.up <- up

(* The one way out of ERR (§5.2, Fig. 2): both ends are torn down at once,
   so operations arriving during the cycle are denied, and come back to
   RTS together only if the handshake can cross — both NICs answer and the
   link carries both ways. The cycle is charged once, on the caller. *)
let reconnect t =
  match t.peer with
  | Some p when not (t.link.retired || t.link.cycling) ->
    let carries a b =
      Sim.Host.nic_reachable b.host
      && match
           Sim.Fabric.find (Sim.Engine.fabric (engine t)) ~src:(Sim.Host.id a.host)
             ~dst:(Sim.Host.id b.host)
         with
         | Some f -> not f.Sim.Fabric.blocked
         | None -> true
    in
    t.link.cycling <- true;
    t.state <- Verbs.Reset;
    p.state <- Verbs.Reset;
    Sim.Host.cpu t.host
      (Sim.Distribution.sample_ns (cal t).Sim.Calibration.perm_qp_restart (Sim.Host.rng t.host));
    t.link.cycling <- false;
    if t.link.up && (not t.link.retired) && carries t p && carries p t then begin
      t.state <- Verbs.Rts;
      p.state <- Verbs.Rts
    end
    else (mark_err t; mark_err p)
  | Some _ | None -> ()

let tel_post t =
  match t.tel with
  | None -> ()
  | Some m ->
    Telemetry.Registry.Counter.inc m.posted;
    Telemetry.Registry.Gauge.add m.outstanding_g 1

let tel_complete t =
  match t.tel with
  | None -> ()
  | Some m ->
    Telemetry.Registry.Counter.inc m.completed;
    Telemetry.Registry.Gauge.add m.outstanding_g (-1)

let kind_name = function
  | `Write -> "write"
  | `Read -> "read"
  | `Send -> "send"
  | `Recv -> "recv"

(* Async-span pairing id: host id composed with wr_id so concurrent posts
   from different hosts never collide. *)
let async_id t wr_id = ((Sim.Host.id t.host + 1) lsl 40) lor (wr_id land 0xFF_FFFF_FFFF)

let trace_post t ~wr_id ~kind ~len =
  let e = engine t in
  if Sim.Engine.traced e then
    Sim.Engine.trace_async_begin e ~cat:"rdma" ~pid:(Sim.Host.id t.host)
      ~id:(async_id t wr_id)
      ~args:[ ("len", string_of_int len) ]
      (kind_name kind)

(* Provenance child span per posted operation, parented on the posting
   fiber's current span — so each follower's accept write is a separate
   child of the leader's "accept" phase and quorum stragglers are
   attributable. Closed (with the completion status) by
   [deliver_completion], possibly from the scheduler context. *)
let prov_post t ~kind ~len =
  let e = engine t in
  if not (Sim.Engine.provenance_on e) then 0
  else
    let peer = match t.peer with Some p -> Sim.Host.id p.host | None -> -1 in
    Sim.Engine.span_open e ~pid:(Sim.Host.id t.host)
      ~args:[ ("peer", string_of_int peer); ("len", string_of_int len) ]
      (kind_name kind)

(* Monotonic clocks preserve RC's in-order guarantees even though wire
   jitter is sampled independently per operation. *)
let arrival_time t ideal =
  let at = Int.max ideal (t.last_arrival + 1) in
  t.last_arrival <- at;
  at

let completion_time t ideal =
  let at = Int.max ideal (t.last_completion + 1) in
  t.last_completion <- at;
  at

let deliver_completion t ~at ~wr_id ~kind ~status ?(byte_len = 0) ?(prov = 0) ~before () =
  let at = completion_time t at in
  Sim.Engine.schedule (engine t) ~at (fun () ->
      t.outstanding <- t.outstanding - 1;
      tel_complete t;
      let e = engine t in
      if Sim.Engine.traced e then
        Sim.Engine.trace_async_end e ~cat:"rdma" ~pid:(Sim.Host.id t.host)
          ~id:(async_id t wr_id)
          ~args:[ ("status", Fmt.str "%a" Verbs.pp_wc_status status) ]
          (kind_name kind);
      if prov <> 0 then
        Sim.Engine.span_close e ~pid:(Sim.Host.id t.host)
          ~args:[ ("status", Fmt.str "%a" Verbs.pp_wc_status status) ]
          prov;
      before ();
      Cq.push t.cq { Verbs.wr_id; kind; status; byte_len })

let wire_delay t ~len =
  let c = cal t in
  Sim.Distribution.sample_ns c.Sim.Calibration.wire (Sim.Host.rng t.host)
  + int_of_float (float_of_int len *. c.Sim.Calibration.wire_byte)

(* Requester-side cost between posting and the packet leaving the NIC:
   NIC processing plus, past the inline threshold, a DMA fetch of the
   payload (§6). *)
let tx_delay t ~payload =
  let c = cal t in
  let fetch =
    if payload <= c.Sim.Calibration.inline_threshold then 0
    else
      c.Sim.Calibration.dma_fetch
      + int_of_float (float_of_int payload *. c.Sim.Calibration.dma_byte)
  in
  c.Sim.Calibration.nic_tx + fetch

(* A lost request or ack: the requester's QP goes to ERR at once and the
   completion waits out the RC transport timeout. *)
let timeout t ~t0 ~wr_id ~kind ~prov =
  mark_err t;
  deliver_completion t
    ~at:(t0 + (cal t).Sim.Calibration.rnic_timeout)
    ~wr_id ~kind ~status:Verbs.Operation_timeout ~prov ~before:ignore ()

(* A responder that denies the operation NAKs it: both ends of the
   connection go to ERR (§5.2). *)
let nak t resp ~wr_id ~kind ~prov =
  mark_err resp;
  let back = Sim.Engine.now (engine t) + (cal t).Sim.Calibration.nic_rx + wire_delay t ~len:0 in
  deliver_completion t ~at:back ~wr_id ~kind ~status:Verbs.Remote_access_error ~prov
    ~before:(fun () -> mark_err t)
    ()

(* Work posted to a non-RTS QP is flushed. *)
let flush t ~wr_id ~kind ~prov =
  deliver_completion t
    ~at:(Sim.Engine.now (engine t) + (cal t).Sim.Calibration.cq_poll)
    ~wr_id ~kind ~status:Verbs.Flushed ~prov ~before:ignore ()

(* --- injected fabric faults -------------------------------------------- *)

(* Outcome of one directed leg under the engine's fault table: either the
   packet is lost for good (RC gives up and the transport timeout fires)
   or it gets through with some extra delay. *)
type leg = { lost : bool; extra : int }

let no_fault = { lost = false; extra = 0 }

(* RC retransmission backoff per lost attempt, and how many retries the
   NIC attempts before declaring the peer unreachable. 8 attempts at
   rnic_timeout/8 keeps every retried-but-delivered packet under the
   transport timeout, so ordering with genuinely dropped operations is
   preserved. *)
let retry_attempts = 8

let trace_fault t ~src ~dst ~what =
  let e = engine t in
  if Sim.Engine.traced e then
    Sim.Engine.trace_instant e ~cat:"fault" ~pid:(Sim.Host.id t.host)
      ~args:[ ("src", string_of_int src); ("dst", string_of_int dst) ]
      what

(* Evaluate the directed link [src -> dst] under injected faults. Draws
   from the requester host's PRNG only when a probabilistic fault is
   installed on the link, so fault-free runs consume exactly the random
   stream they did before fault injection existed. *)
let eval_leg t ~src ~dst =
  match Sim.Fabric.find (Sim.Engine.fabric (engine t)) ~src ~dst with
  | None -> no_fault
  | Some f ->
    if f.Sim.Fabric.blocked then begin
      trace_fault t ~src ~dst ~what:"fabric_blocked";
      { lost = true; extra = 0 }
    end
    else begin
      let c = cal t in
      let rng = Sim.Host.rng t.host in
      let extra = ref f.Sim.Fabric.extra_delay in
      let lost = ref false in
      if f.Sim.Fabric.loss > 0. then begin
        let retry_ns = c.Sim.Calibration.rnic_timeout / retry_attempts in
        let attempts = ref 0 in
        while (not !lost) && Sim.Rng.float rng < f.Sim.Fabric.loss do
          incr attempts;
          if !attempts >= retry_attempts then lost := true
          else extra := !extra + retry_ns
        done;
        if !attempts > 0 then
          trace_fault t ~src ~dst ~what:(if !lost then "fabric_drop" else "fabric_retransmit")
      end;
      if (not !lost) && f.Sim.Fabric.dup > 0. && Sim.Rng.float rng < f.Sim.Fabric.dup
      then begin
        (* RC discards the duplicate by PSN; it only occupies the
           responder NIC for one extra receive. *)
        extra := !extra + c.Sim.Calibration.nic_rx;
        trace_fault t ~src ~dst ~what:"fabric_dup"
      end;
      if !lost then { lost = true; extra = 0 } else { lost = false; extra = !extra }
    end

let responder_allows resp ~(mr : Mr.t) ~off ~len ~need_write =
  (match resp.state with Verbs.Rtr | Verbs.Rts -> true | Verbs.Reset | Verbs.Init | Verbs.Err -> false)
  && (if need_write then resp.acc.Verbs.remote_write else resp.acc.Verbs.remote_read)
  && (if need_write then (Mr.access mr).Verbs.remote_write else (Mr.access mr).Verbs.remote_read)
  && Mr.is_valid mr
  && Mr.in_bounds mr ~off ~len

(* Shared post path for Read and Write. [payload_out] is the number of
   bytes serialised on the request; [payload_back] on the response.
   [apply] runs at the responder at arrival time when allowed (memory
   effect / data capture); [on_complete] runs at the requester just before
   the success completion is delivered. *)
let post t ~wr_id ~kind ~payload_out ~payload_back ~mr ~off ~len ~need_write ~apply ~on_complete
    =
  let e = engine t in
  let c = cal t in
  Sim.Host.cpu t.host c.Sim.Calibration.wr_post;
  t.outstanding <- t.outstanding + 1;
  tel_post t;
  trace_post t ~wr_id ~kind ~len:payload_out;
  let prov = prov_post t ~kind ~len:payload_out in
  match t.state, t.peer with
  | Verbs.Rts, Some resp when Mr.host mr == resp.host ->
    let t0 = Sim.Engine.now e in
    let src = Sim.Host.id t.host and dst = Sim.Host.id resp.host in
    let req = eval_leg t ~src ~dst in
    let arrive =
      arrival_time t
        (t0 + tx_delay t ~payload:payload_out + wire_delay t ~len:payload_out + req.extra)
    in
    Sim.Engine.schedule e ~at:arrive (fun () ->
        if req.lost || (not t.link.up) || not (Sim.Host.nic_reachable resp.host) then
          (* RC retransmits silently until the transport timeout fires. *)
          timeout t ~t0 ~wr_id ~kind ~prov
        else if not (responder_allows resp ~mr ~off ~len ~need_write) then
          nak t resp ~wr_id ~kind ~prov
        else begin
          apply ();
          match eval_leg t ~src:dst ~dst:src with
          | { lost = true; _ } ->
            (* The operation took effect at the responder but the ack never
               makes it back — the adversarial asymmetric-partition case.
               The requester cannot tell this from a dropped request. *)
            timeout t ~t0 ~wr_id ~kind ~prov
          | { lost = false; extra } ->
            (* Writes into persistent memory are acknowledged only once
               flushed (SNIA RDMA persistence extension, paper §1). *)
            let flush =
              if need_write && Mr.is_persistent mr then c.Sim.Calibration.pmem_flush else 0
            in
            let back =
              Sim.Engine.now e + c.Sim.Calibration.nic_rx + flush
              + wire_delay t ~len:payload_back
              + c.Sim.Calibration.cq_poll + extra
            in
            deliver_completion t ~at:back ~wr_id ~kind ~status:Verbs.Success ~byte_len:len
              ~prov ~before:on_complete ()
        end)
  | Verbs.Rts, Some _ -> invalid_arg "Qp.post: MR does not belong to the peer host"
  | Verbs.Rts, None -> invalid_arg "Qp.post: not connected"
  | (Verbs.Reset | Verbs.Init | Verbs.Rtr | Verbs.Err), _ -> flush t ~wr_id ~kind ~prov

(* Both Writes go through here, so a zero Write costs, faults and draws
   exactly what a payload Write of the same length does. *)
let post_write_op t ~wr_id ~len ~mr ~dst_off apply =
  post t ~wr_id ~kind:`Write ~payload_out:len ~payload_back:0 ~mr ~off:dst_off ~len
    ~need_write:true ~apply ~on_complete:(fun () -> ())

let post_write t ~wr_id ~src ~src_off ~len ~mr ~dst_off =
  if src_off < 0 || len < 0 || src_off + len > Bytes.length src then
    invalid_arg "Qp.post_write: bad source range";
  (* Inline semantics: the payload is captured at post time regardless of
     later changes to [src]. *)
  let payload = Bytes.sub src src_off len in
  post_write_op t ~wr_id ~len ~mr ~dst_off (fun () ->
      Mr.write_from mr ~off:dst_off ~src:payload ~src_off:0 ~len)

let post_zero t ~wr_id ~len ~mr ~dst_off =
  if len < 0 then invalid_arg "Qp.post_zero: negative length";
  post_write_op t ~wr_id ~len ~mr ~dst_off (fun () -> Mr.zero mr ~off:dst_off ~len)

let post_read t ~wr_id ~dst ~dst_off ~len ~mr ~src_off =
  if dst_off < 0 || len < 0 || dst_off + len > Bytes.length dst then
    invalid_arg "Qp.post_read: bad destination range";
  let snapshot = ref Bytes.empty in
  post t ~wr_id ~kind:`Read ~payload_out:0 ~payload_back:len ~mr ~off:src_off ~len
    ~need_write:false
    ~apply:(fun () -> snapshot := Mr.get_bytes mr ~off:src_off ~len)
    ~on_complete:(fun () -> Bytes.blit !snapshot 0 dst dst_off len)

(* --- two-sided Send/Receive -------------------------------------------- *)

(* Consume a posted receive for [payload] at the responder: copy the data,
   deliver the receive completion, and report the match back so the sender
   completion can be scheduled. *)
let consume_recv (resp : t) ~payload ~at ~notify =
  let c = cal resp in
  let r = Queue.pop resp.recvq in
  let len = Bytes.length payload in
  if len > r.rmax_len then begin
    (* Local length error at the responder; the connection breaks. *)
    mark_err resp;
    let at = completion_time resp (at + c.Sim.Calibration.nic_rx) in
    Sim.Engine.schedule (engine resp) ~at (fun () ->
        Cq.push resp.cq
          { Verbs.wr_id = r.rwr_id; kind = `Recv; status = Verbs.Remote_access_error;
            byte_len = 0 });
    notify ~arrived_at:at ~len:(-1)
  end
  else begin
    Bytes.blit payload 0 r.rdst r.rdst_off len;
    let at = completion_time resp (at + c.Sim.Calibration.nic_rx) in
    Sim.Engine.schedule (engine resp) ~at (fun () ->
        Cq.push resp.cq
          { Verbs.wr_id = r.rwr_id; kind = `Recv; status = Verbs.Success; byte_len = len });
    notify ~arrived_at:at ~len
  end

let post_recv t ~wr_id ~dst ~dst_off ~max_len =
  if dst_off < 0 || max_len < 0 || dst_off + max_len > Bytes.length dst then
    invalid_arg "Qp.post_recv: bad buffer range";
  Queue.push { rwr_id = wr_id; rdst = dst; rdst_off = dst_off; rmax_len = max_len } t.recvq;
  (* Match a sender that was RNR-retrying. *)
  if not (Queue.is_empty t.pending_sends) then begin
    let p = Queue.pop t.pending_sends in
    consume_recv t ~payload:p.payload ~at:(Sim.Engine.now (engine t))
      ~notify:(fun ~arrived_at ~len -> p.complete ~arrived_at ~len)
  end

let post_send t ~wr_id ~src ~src_off ~len =
  if src_off < 0 || len < 0 || src_off + len > Bytes.length src then
    invalid_arg "Qp.post_send: bad source range";
  let e = engine t in
  let c = cal t in
  Sim.Host.cpu t.host c.Sim.Calibration.wr_post;
  t.outstanding <- t.outstanding + 1;
  tel_post t;
  trace_post t ~wr_id ~kind:`Send ~len;
  let prov = prov_post t ~kind:`Send ~len in
  match t.state, t.peer with
  | Verbs.Rts, Some resp ->
    let payload = Bytes.sub src src_off len in
    let t0 = Sim.Engine.now e in
    let sid = Sim.Host.id t.host and did = Sim.Host.id resp.host in
    let req = eval_leg t ~src:sid ~dst:did in
    let arrive =
      arrival_time t (t0 + tx_delay t ~payload:len + wire_delay t ~len + req.extra)
    in
    Sim.Engine.schedule e ~at:arrive (fun () ->
        if req.lost || (not t.link.up) || not (Sim.Host.nic_reachable resp.host) then
          timeout t ~t0 ~wr_id ~kind:`Send ~prov
        else if
          match resp.state with
          | Verbs.Rtr | Verbs.Rts -> false
          | Verbs.Reset | Verbs.Init | Verbs.Err -> true
        then nak t resp ~wr_id ~kind:`Send ~prov
        else begin
          let notify ~arrived_at ~len:got =
            if got < 0 then
              deliver_completion t
                ~at:(arrived_at + wire_delay t ~len:0)
                ~wr_id ~kind:`Send ~status:Verbs.Remote_access_error ~prov
                ~before:(fun () -> mark_err t)
                ()
            else
              match eval_leg t ~src:did ~dst:sid with
              | { lost = true; _ } ->
                (* Delivered, but the ack never returns. *)
                timeout t ~t0 ~wr_id ~kind:`Send ~prov
              | { lost = false; extra } ->
                deliver_completion t
                  ~at:(arrived_at + wire_delay t ~len:0 + c.Sim.Calibration.cq_poll + extra)
                  ~wr_id ~kind:`Send ~status:Verbs.Success ~byte_len:got ~prov
                  ~before:ignore ()
          in
          if Queue.is_empty resp.recvq then
            (* RNR: the requester NIC retries until a buffer is posted. *)
            Queue.push
              { payload; complete = (fun ~arrived_at ~len -> notify ~arrived_at ~len) }
              resp.pending_sends
          else consume_recv resp ~payload ~at:(Sim.Engine.now e) ~notify
        end)
  | Verbs.Rts, None -> invalid_arg "Qp.post_send: not connected"
  | (Verbs.Reset | Verbs.Init | Verbs.Rtr | Verbs.Err), _ -> flush t ~wr_id ~kind:`Send ~prov

let posted_recvs t = Queue.length t.recvq

(* Maximum request/response payload (bytes). *)
let request_capacity = 256

(* Slot layout (requests at the server; responses at each client):
   seq(8) len(4) payload(cap). The sequence number changes with every
   message, so the polling side detects arrival without zeroing. *)
let slot_size = 12 + request_capacity
let poll_phase = 650 (* server notices a request within this window *)
let serve_cpu = 600 (* slot bookkeeping + client-side response detection *)

type server = {
  engine : Sim.Engine.t;
  cal : Sim.Calibration.t;
  host : Sim.Host.t;
  req_mr : Rdma.Mr.t;
  clients : int;
  handler : bytes -> bytes;
  doorbell : int Sim.Engine.Chan.chan;  (* client slots with fresh requests *)
  resp_targets : (int, Rdma.Qp.t * Rdma.Mr.t) Hashtbl.t;
  mutable wr : int;
  cq : Rdma.Cq.t;
}

let encode_msg ~seq payload =
  let b = Bytes.make (12 + Bytes.length payload) '\000' in
  Bytes.set_int64_le b 0 (Int64.of_int seq);
  Bytes.set_int32_le b 8 (Int32.of_int (Bytes.length payload));
  Bytes.blit payload 0 b 12 (Bytes.length payload);
  b

let decode_msg buf off =
  let seq = Int64.to_int (Rdma.Mr.get_i64 buf ~off) in
  let len = Int32.to_int (Rdma.Mr.get_i32 buf ~off:(off + 8)) in
  (seq, Rdma.Mr.get_bytes buf ~off:(off + 12) ~len)

let server engine cal ~host ~clients ~handler =
  let req_mr =
    Rdma.Mr.register host ~size:(clients * slot_size) ~access:Rdma.Verbs.access_rw
  in
  let t =
    {
      engine;
      cal;
      host;
      req_mr;
      clients;
      handler;
      doorbell = Sim.Engine.Chan.create engine;
      resp_targets = Hashtbl.create 8;
      wr = 0;
      cq = Rdma.Cq.create engine;
    }
  in
  (* The watch stands in for the server's slot-polling loop: the poll
     phase is charged explicitly when the request is picked up. *)
  Rdma.Mr.watch req_mr ~off:0 ~len:(clients * slot_size) (fun ~off ~len:_ ->
      Sim.Engine.Chan.send t.doorbell (off / slot_size));
  Sim.Host.spawn host ~name:"herd-server" (fun () ->
      let last_seq = Array.make clients 0 in
      let rng = Sim.Host.rng host in
      let rec loop () =
        let slot = Sim.Engine.Chan.recv t.doorbell in
        let seq, payload = decode_msg t.req_mr (slot * slot_size) in
        if seq > last_seq.(slot) then begin
          last_seq.(slot) <- seq;
          Sim.Host.cpu host (Sim.Rng.int rng poll_phase + serve_cpu);
          let response = t.handler payload in
          (match Hashtbl.find_opt t.resp_targets slot with
          | Some (qp, mr) ->
            let msg = encode_msg ~seq response in
            t.wr <- t.wr + 1;
            Rdma.Qp.post_write qp ~wr_id:t.wr ~src:msg ~src_off:0 ~len:(Bytes.length msg)
              ~mr ~dst_off:0;
            ignore (Rdma.Cq.await t.cq)
          | None -> ())
        end;
        loop ()
      in
      loop ());
  t

type client = {
  c_server : server;
  c_id : int;
  c_host : Sim.Host.t;
  c_qp : Rdma.Qp.t;  (* client -> server *)
  c_resp_mr : Rdma.Mr.t;
  c_cq : Rdma.Cq.t;
  mutable c_seq : int;
  mutable c_wr : int;
  mutable c_wait : (int * bytes Sim.Engine.Ivar.ivar) option;
}

let connect srv ~id ~host =
  if id < 0 || id >= srv.clients then invalid_arg "Herd.connect: bad client id";
  let c_cq = Rdma.Cq.create srv.engine in
  let c_qp = Rdma.Qp.create host ~cq:c_cq in
  let s_qp = Rdma.Qp.create srv.host ~cq:srv.cq in
  Rdma.Qp.connect c_qp s_qp;
  Rdma.Qp.set_access c_qp Rdma.Verbs.access_rw;
  Rdma.Qp.set_access s_qp Rdma.Verbs.access_rw;
  let c_resp_mr = Rdma.Mr.register host ~size:slot_size ~access:Rdma.Verbs.access_rw in
  let t =
    { c_server = srv; c_id = id; c_host = host; c_qp; c_resp_mr; c_cq; c_seq = 0;
      c_wr = 0; c_wait = None }
  in
  Hashtbl.replace srv.resp_targets id (s_qp, c_resp_mr);
  Rdma.Mr.watch c_resp_mr ~off:0 ~len:slot_size (fun ~off:_ ~len:_ ->
      match t.c_wait with
      | Some (expect, iv) ->
        let seq, payload = decode_msg t.c_resp_mr 0 in
        if seq = expect then begin
          t.c_wait <- None;
          Sim.Engine.Ivar.fill iv payload
        end
      | None -> ());
  t

let call t payload =
  if Bytes.length payload > request_capacity then invalid_arg "Herd.call: payload too large";
  t.c_seq <- t.c_seq + 1;
  let iv = Sim.Engine.Ivar.create t.c_server.engine in
  t.c_wait <- Some (t.c_seq, iv);
  let msg = encode_msg ~seq:t.c_seq payload in
  t.c_wr <- t.c_wr + 1;
  Rdma.Qp.post_write t.c_qp ~wr_id:t.c_wr ~src:msg ~src_off:0 ~len:(Bytes.length msg)
    ~mr:t.c_server.req_mr ~dst_off:(t.c_id * slot_size);
  ignore (Rdma.Cq.await t.c_cq);
  ignore t.c_host;
  Sim.Engine.Ivar.read iv

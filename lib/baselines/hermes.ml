(* Replica CPU cost to process an INV and emit the ACK. *)
let inv_process = 1_900
let poll_interval = 500

(* Replica buffer layout: INV slot at 4096; VAL slot at 8192.
   Coordinator layout: ACK slot for replica j at [8*j]. *)
let inv_off = 4096
let val_off = 8192

let create (c : Common.t) =
  let n = Common.n c in
  let members = List.init (n - 1) (fun i -> i + 1) in
  List.iter
    (fun j ->
      let doorbell = Sim.Engine.Chan.create c.Common.engine in
      let mr = c.Common.mrs.(j) in
      Rdma.Mr.watch mr ~off:0 ~len:(Rdma.Mr.size mr) (fun ~off ~len:_ ->
          if off = inv_off then Sim.Engine.Chan.send doorbell ());
      Sim.Host.spawn c.Common.hosts.(j) ~name:"hermes-member" (fun () ->
          let rng = Sim.Host.rng c.Common.hosts.(j) in
          let rec loop () =
            Sim.Engine.Chan.recv doorbell;
            Sim.Host.cpu c.Common.hosts.(j) (Sim.Rng.int rng poll_interval + inv_process);
            let seq = Rdma.Mr.get_i64 c.Common.mrs.(j) ~off:inv_off in
            let ack = Bytes.create 8 in
            Bytes.set_int64_le ack 0 seq;
            Common.write_to c ~src:j ~dst:0 ~data:ack ~off:(8 * j);
            Common.await_successes c ~node:j ~count:1;
            loop ()
          in
          loop ()))
    members;
  let acks = Sim.Engine.Chan.create c.Common.engine in
  let coord = c.Common.mrs.(0) in
  Rdma.Mr.watch coord ~off:0 ~len:(Rdma.Mr.size coord) (fun ~off ~len:_ ->
      if off < 8 * n then Sim.Engine.Chan.send acks (off / 8, Rdma.Mr.get_i64 coord ~off));
  let seq = ref 0 in
  let replicate payload =
    incr seq;
    let t0 = Sim.Engine.now c.Common.engine in
    let inv = Bytes.create (8 + Bytes.length payload) in
    Bytes.set_int64_le inv 0 (Int64.of_int !seq);
    Bytes.blit payload 0 inv 8 (Bytes.length payload);
    List.iter (fun j -> Common.write_to c ~src:0 ~dst:j ~data:inv ~off:inv_off) members;
    (* Hermes completes a write only once every live replica acked. *)
    let got = ref 0 in
    while !got < List.length members do
      let _, s = Sim.Engine.Chan.recv acks in
      if Int64.to_int s = !seq then incr got
    done;
    let dt = Sim.Engine.now c.Common.engine - t0 in
    (* VAL broadcast: off the measured path. *)
    let v = Bytes.create 8 in
    Bytes.set_int64_le v 0 (Int64.of_int !seq);
    List.iter (fun j -> Common.write_to c ~src:0 ~dst:j ~data:v ~off:val_off) members;
    (* Drain INV and VAL write completions. *)
    Common.await_successes c ~node:0 ~count:(2 * List.length members);
    dt
  in
  Common.with_telemetry c { Common.name = "Hermes"; replicate }

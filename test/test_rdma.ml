(* Tests for the simulated RDMA substrate: MRs, QPs, CQs, one-sided
   Write/Read semantics, permissions, failure modes, and the permission
   switch mechanisms. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let await_status cq = (Rdma.Cq.await cq).Rdma.Verbs.status

(* --- MR ------------------------------------------------------------------ *)

let mr_register_and_bounds () =
  let e = Util.engine () in
  let h = Util.host e ~id:0 in
  let mr = Rdma.Mr.register h ~size:128 ~access:Rdma.Verbs.access_rw in
  check_int "size" 128 (Rdma.Mr.size mr);
  check "in bounds" true (Rdma.Mr.in_bounds mr ~off:120 ~len:8);
  check "overflow" false (Rdma.Mr.in_bounds mr ~off:121 ~len:8);
  check "negative" false (Rdma.Mr.in_bounds mr ~off:(-1) ~len:4)

let mr_typed_access () =
  let e = Util.engine () in
  let h = Util.host e ~id:0 in
  let mr = Rdma.Mr.register h ~size:64 ~access:Rdma.Verbs.access_rw in
  Rdma.Mr.set_i64 mr ~off:8 77L;
  Alcotest.(check int64) "roundtrip" 77L (Rdma.Mr.get_i64 mr ~off:8);
  Rdma.Mr.set_bytes mr ~off:16 (Bytes.of_string "hello");
  Alcotest.(check string) "bytes" "hello"
    (Bytes.to_string (Rdma.Mr.get_bytes mr ~off:16 ~len:5))

let mr_alias_shares_memory () =
  let e = Util.engine () in
  let h = Util.host e ~id:0 in
  let mr = Rdma.Mr.register h ~size:64 ~access:Rdma.Verbs.access_rw in
  let ro = Rdma.Mr.alias mr ~access:Rdma.Verbs.access_ro in
  Rdma.Mr.set_i64 mr ~off:0 5L;
  Alcotest.(check int64) "alias sees writes" 5L (Rdma.Mr.get_i64 ro ~off:0);
  check "independent flags" true ((Rdma.Mr.access ro).Rdma.Verbs.remote_write = false)

(* --- Write/Read happy path ------------------------------------------------ *)

(* [post_zero] is a Write of zeros with no source buffer: over the same
   posts it must give the same completion instants and statuses, leave
   the host's random stream in the same place and the target memory in
   the same state as [post_write] of a zero buffer of that length —
   inline and DMA-fetched lengths, volatile and persistent targets, with
   and without a lossy link. *)
let post_zero_costs_like_write () =
  let run ~zero ~len ~persistent ~lossy =
    let e = Util.engine ~seed:3L () in
    let a, b, qa, _qb, cq_a, _ = Util.qp_pair e in
    if lossy then begin
      Sim.Fabric.set_loss (Sim.Engine.fabric e) ~src:0 ~dst:1 0.3;
      Sim.Fabric.set_loss (Sim.Engine.fabric e) ~src:1 ~dst:0 0.3
    end;
    let mr_b = Rdma.Mr.register ~persistent b ~size:16_384 ~access:Rdma.Verbs.access_rw in
    Rdma.Mr.set_bytes mr_b ~off:0 (Bytes.make 16_384 'x');
    let zeros = Bytes.make len '\000' in
    let completions = ref [] in
    Sim.Engine.spawn e (fun () ->
        for i = 1 to 20 do
          let dst_off = i * 512 in
          if zero then Rdma.Qp.post_zero qa ~wr_id:i ~len ~mr:mr_b ~dst_off
          else Rdma.Qp.post_write qa ~wr_id:i ~src:zeros ~src_off:0 ~len ~mr:mr_b ~dst_off;
          let c = Rdma.Cq.await cq_a in
          completions := (Sim.Engine.now e, c.Rdma.Verbs.status) :: !completions
        done);
    Sim.Engine.run e;
    ( List.rev !completions,
      Sim.Rng.int64 (Sim.Host.rng a),
      Bytes.to_string (Rdma.Mr.get_bytes mr_b ~off:0 ~len:16_384) )
  in
  List.iter
    (fun (len, persistent, lossy) ->
      let w = run ~zero:false ~len ~persistent ~lossy
      and z = run ~zero:true ~len ~persistent ~lossy in
      check (Printf.sprintf "len %d persistent %b lossy %b" len persistent lossy) true (w = z))
    [
      (32, false, false);
      (4096, false, false);
      (32, true, false);
      (4096, true, true);
      (200, false, true);
    ]

let write_delivers_data () =
  Util.run_fiber (fun e ->
      let _a, b, qa, _qb, cq_a, _ = Util.qp_pair e in
      let mr_b = Rdma.Mr.register b ~size:256 ~access:Rdma.Verbs.access_rw in
      let data = Bytes.of_string "payload!" in
      Rdma.Qp.post_write qa ~wr_id:1 ~src:data ~src_off:0 ~len:8 ~mr:mr_b ~dst_off:16;
      Alcotest.check Util.check_status "success" Rdma.Verbs.Success (await_status cq_a);
      Alcotest.(check string) "data landed" "payload!"
        (Bytes.to_string (Rdma.Mr.get_bytes mr_b ~off:16 ~len:8)))

let write_takes_time () =
  Util.run_fiber (fun e ->
      let _a, b, qa, _qb, cq_a, _ = Util.qp_pair e in
      let mr_b = Rdma.Mr.register b ~size:256 ~access:Rdma.Verbs.access_rw in
      let t0 = Sim.Engine.now e in
      Rdma.Qp.post_write qa ~wr_id:1 ~src:(Bytes.make 64 'x') ~src_off:0 ~len:64 ~mr:mr_b
        ~dst_off:0;
      ignore (Rdma.Cq.await cq_a);
      let dt = Sim.Engine.now e - t0 in
      check "plausible one-sided RTT" true (dt > 800 && dt < 3_000))

let write_inline_snapshot () =
  (* The payload is captured at post time: mutating the source afterwards
     must not change what lands remotely. *)
  Util.run_fiber (fun e ->
      let _a, b, qa, _qb, cq_a, _ = Util.qp_pair e in
      let mr_b = Rdma.Mr.register b ~size:64 ~access:Rdma.Verbs.access_rw in
      let data = Bytes.of_string "AAAA" in
      Rdma.Qp.post_write qa ~wr_id:1 ~src:data ~src_off:0 ~len:4 ~mr:mr_b ~dst_off:0;
      Bytes.fill data 0 4 'B';
      ignore (Rdma.Cq.await cq_a);
      Alcotest.(check string) "snapshot" "AAAA"
        (Bytes.to_string (Rdma.Mr.get_bytes mr_b ~off:0 ~len:4)))

let read_returns_data () =
  Util.run_fiber (fun e ->
      let _a, b, qa, _qb, cq_a, _ = Util.qp_pair e in
      let mr_b = Rdma.Mr.register b ~size:64 ~access:Rdma.Verbs.access_rw in
      Rdma.Mr.set_bytes mr_b ~off:8 (Bytes.of_string "remote");
      let dst = Bytes.make 6 '.' in
      Rdma.Qp.post_read qa ~wr_id:2 ~dst ~dst_off:0 ~len:6 ~mr:mr_b ~src_off:8;
      check "dst untouched before completion" true (Bytes.to_string dst = "......");
      Alcotest.check Util.check_status "success" Rdma.Verbs.Success (await_status cq_a);
      Alcotest.(check string) "read data" "remote" (Bytes.to_string dst))

let read_snapshot_at_arrival () =
  (* A Read captures remote memory at its arrival instant, not at the
     completion instant. *)
  Util.run_fiber (fun e ->
      let _a, b, qa, _qb, cq_a, _ = Util.qp_pair e in
      let mr_b = Rdma.Mr.register b ~size:64 ~access:Rdma.Verbs.access_rw in
      Rdma.Mr.set_i64 mr_b ~off:0 1L;
      let dst = Bytes.make 8 '\000' in
      Rdma.Qp.post_read qa ~wr_id:3 ~dst ~dst_off:0 ~len:8 ~mr:mr_b ~src_off:0;
      (* Overwrite remote memory well after arrival but before our fiber
         sees the completion: schedule far enough to be post-arrival. *)
      Sim.Engine.schedule e ~at:(Sim.Engine.now e + 100_000) (fun () ->
          Rdma.Mr.set_i64 mr_b ~off:0 2L);
      ignore (Rdma.Cq.await cq_a);
      Alcotest.(check int64) "value from arrival time" 1L (Bytes.get_int64_le dst 0))

let writes_fifo_order () =
  (* Many writes on one QP apply in posting order despite wire jitter. *)
  Util.run_fiber (fun e ->
      let _a, b, qa, _qb, cq_a, _ = Util.qp_pair e in
      let mr_b = Rdma.Mr.register b ~size:64 ~access:Rdma.Verbs.access_rw in
      let n = 200 in
      for i = 1 to n do
        let buf = Bytes.create 8 in
        Bytes.set_int64_le buf 0 (Int64.of_int i);
        Rdma.Qp.post_write qa ~wr_id:i ~src:buf ~src_off:0 ~len:8 ~mr:mr_b ~dst_off:0
      done;
      let last = ref 0 in
      for _ = 1 to n do
        let wc = Rdma.Cq.await cq_a in
        check "completion order" true (wc.Rdma.Verbs.wr_id = !last + 1);
        last := wc.Rdma.Verbs.wr_id
      done;
      Alcotest.(check int64) "last write wins" (Int64.of_int n) (Rdma.Mr.get_i64 mr_b ~off:0))

let payload_size_affects_latency () =
  Util.run_fiber (fun e ->
      let _a, b, qa, _qb, cq_a, _ = Util.qp_pair e in
      let mr_b = Rdma.Mr.register b ~size:8192 ~access:Rdma.Verbs.access_rw in
      let measure len =
        let s = Sim.Stats.Samples.create () in
        for i = 1 to 200 do
          let t0 = Sim.Engine.now e in
          Rdma.Qp.post_write qa ~wr_id:i ~src:(Bytes.make len 'x') ~src_off:0 ~len ~mr:mr_b
            ~dst_off:0;
          ignore (Rdma.Cq.await cq_a);
          Sim.Stats.Samples.add s (Sim.Engine.now e - t0)
        done;
        Sim.Stats.Samples.median s
      in
      let small = measure 64 and below = measure 200 and above = measure 1024 in
      check "inline sizes comparable" true (abs (below - small) < 200);
      check "DMA fetch kicks in past the threshold" true (above > below + 250))

(* --- Permissions at the responder ----------------------------------------- *)

let write_denied_by_qp_flags () =
  Util.run_fiber (fun e ->
      let _a, b, qa, qb, cq_a, _ = Util.qp_pair e in
      let mr_b = Rdma.Mr.register b ~size:64 ~access:Rdma.Verbs.access_rw in
      Rdma.Qp.set_access qb Rdma.Verbs.access_ro;
      Rdma.Qp.post_write qa ~wr_id:1 ~src:(Bytes.make 8 'x') ~src_off:0 ~len:8 ~mr:mr_b
        ~dst_off:0;
      Alcotest.check Util.check_status "denied" Rdma.Verbs.Remote_access_error
        (await_status cq_a);
      check "requester QP errored" true (Rdma.Qp.state qa = Rdma.Verbs.Err);
      check "responder QP errored" true (Rdma.Qp.state qb = Rdma.Verbs.Err);
      check "memory untouched" true (Rdma.Mr.get_i64 mr_b ~off:0 = 0L))

let read_allowed_when_write_denied () =
  Util.run_fiber (fun e ->
      let _a, b, qa, qb, cq_a, _ = Util.qp_pair e in
      let mr_b = Rdma.Mr.register b ~size:64 ~access:Rdma.Verbs.access_rw in
      Rdma.Mr.set_i64 mr_b ~off:0 9L;
      Rdma.Qp.set_access qb Rdma.Verbs.access_ro;
      let dst = Bytes.create 8 in
      Rdma.Qp.post_read qa ~wr_id:1 ~dst ~dst_off:0 ~len:8 ~mr:mr_b ~src_off:0;
      Alcotest.check Util.check_status "read ok" Rdma.Verbs.Success (await_status cq_a))

let write_denied_by_mr_flags () =
  Util.run_fiber (fun e ->
      let _a, b, qa, _qb, cq_a, _ = Util.qp_pair e in
      let mr_b = Rdma.Mr.register b ~size:64 ~access:Rdma.Verbs.access_ro in
      Rdma.Qp.post_write qa ~wr_id:1 ~src:(Bytes.make 8 'x') ~src_off:0 ~len:8 ~mr:mr_b
        ~dst_off:0;
      Alcotest.check Util.check_status "denied by MR" Rdma.Verbs.Remote_access_error
        (await_status cq_a))

let write_denied_out_of_bounds () =
  Util.run_fiber (fun e ->
      let _a, b, qa, _qb, cq_a, _ = Util.qp_pair e in
      let mr_b = Rdma.Mr.register b ~size:64 ~access:Rdma.Verbs.access_rw in
      Rdma.Qp.post_write qa ~wr_id:1 ~src:(Bytes.make 16 'x') ~src_off:0 ~len:16 ~mr:mr_b
        ~dst_off:56;
      Alcotest.check Util.check_status "bounds" Rdma.Verbs.Remote_access_error
        (await_status cq_a))

let write_denied_invalidated_mr () =
  Util.run_fiber (fun e ->
      let _a, b, qa, _qb, cq_a, _ = Util.qp_pair e in
      let mr_b = Rdma.Mr.register b ~size:64 ~access:Rdma.Verbs.access_rw in
      Rdma.Mr.invalidate mr_b;
      Rdma.Qp.post_write qa ~wr_id:1 ~src:(Bytes.make 8 'x') ~src_off:0 ~len:8 ~mr:mr_b
        ~dst_off:0;
      Alcotest.check Util.check_status "invalid MR" Rdma.Verbs.Remote_access_error
        (await_status cq_a))

let post_on_err_qp_flushes () =
  Util.run_fiber (fun e ->
      let _a, b, qa, _qb, cq_a, _ = Util.qp_pair e in
      let mr_b = Rdma.Mr.register b ~size:64 ~access:Rdma.Verbs.access_rw in
      Rdma.Qp.set_state qa Rdma.Verbs.Err;
      Rdma.Qp.post_write qa ~wr_id:5 ~src:(Bytes.make 8 'x') ~src_off:0 ~len:8 ~mr:mr_b
        ~dst_off:0;
      Alcotest.check Util.check_status "flushed" Rdma.Verbs.Flushed (await_status cq_a);
      check "memory untouched" true (Rdma.Mr.get_i64 mr_b ~off:0 = 0L))

let repair_after_error () =
  Util.run_fiber (fun e ->
      let _a, b, qa, qb, cq_a, _ = Util.qp_pair e in
      let mr_b = Rdma.Mr.register b ~size:64 ~access:Rdma.Verbs.access_rw in
      Rdma.Qp.set_access qb Rdma.Verbs.access_ro;
      Rdma.Qp.post_write qa ~wr_id:1 ~src:(Bytes.make 8 'x') ~src_off:0 ~len:8 ~mr:mr_b
        ~dst_off:0;
      ignore (Rdma.Cq.await cq_a);
      check "NAK breaks both ends" true
        (Rdma.Qp.state qa = Rdma.Verbs.Err && Rdma.Qp.state qb = Rdma.Verbs.Err);
      (* Re-grant and reconnect the pair; the next write must succeed. *)
      Rdma.Qp.set_access qb Rdma.Verbs.access_rw;
      Rdma.Qp.reconnect qa;
      Rdma.Qp.post_write qa ~wr_id:2 ~src:(Bytes.make 8 'y') ~src_off:0 ~len:8 ~mr:mr_b
        ~dst_off:0;
      Alcotest.check Util.check_status "works again" Rdma.Verbs.Success (await_status cq_a))

(* --- Failure modes --------------------------------------------------------- *)

let paused_process_still_serves () =
  Util.run_fiber (fun e ->
      let _a, b, qa, _qb, cq_a, _ = Util.qp_pair e in
      let mr_b = Rdma.Mr.register b ~size:64 ~access:Rdma.Verbs.access_rw in
      Sim.Host.pause b;
      Rdma.Qp.post_write qa ~wr_id:1 ~src:(Bytes.make 8 'z') ~src_off:0 ~len:8 ~mr:mr_b
        ~dst_off:0;
      Alcotest.check Util.check_status "one-sided op unaffected" Rdma.Verbs.Success
        (await_status cq_a))

let stopped_process_still_serves () =
  Util.run_fiber (fun e ->
      let _a, b, qa, _qb, cq_a, _ = Util.qp_pair e in
      let mr_b = Rdma.Mr.register b ~size:64 ~access:Rdma.Verbs.access_rw in
      Sim.Host.stop_process b;
      let dst = Bytes.create 8 in
      Rdma.Qp.post_read qa ~wr_id:1 ~dst ~dst_off:0 ~len:8 ~mr:mr_b ~src_off:0;
      Alcotest.check Util.check_status "pinned memory readable" Rdma.Verbs.Success
        (await_status cq_a))

let dead_host_times_out () =
  Util.run_fiber (fun e ->
      let _a, b, qa, _qb, cq_a, _ = Util.qp_pair e in
      let mr_b = Rdma.Mr.register b ~size:64 ~access:Rdma.Verbs.access_rw in
      Sim.Host.kill_host b;
      let t0 = Sim.Engine.now e in
      Rdma.Qp.post_write qa ~wr_id:1 ~src:(Bytes.make 8 'x') ~src_off:0 ~len:8 ~mr:mr_b
        ~dst_off:0;
      Alcotest.check Util.check_status "timeout" Rdma.Verbs.Operation_timeout
        (await_status cq_a);
      let dt = Sim.Engine.now e - t0 in
      check "took the RC transport timeout" true
        (dt >= Util.default_cal.Sim.Calibration.rnic_timeout);
      check "QP errored" true (Rdma.Qp.state qa = Rdma.Verbs.Err))

let partition_times_out () =
  Util.run_fiber (fun e ->
      let _a, b, qa, _qb, cq_a, _ = Util.qp_pair e in
      let mr_b = Rdma.Mr.register b ~size:64 ~access:Rdma.Verbs.access_rw in
      Rdma.Qp.set_link_up qa false;
      Rdma.Qp.post_write qa ~wr_id:1 ~src:(Bytes.make 8 'x') ~src_off:0 ~len:8 ~mr:mr_b
        ~dst_off:0;
      Alcotest.check Util.check_status "partitioned" Rdma.Verbs.Operation_timeout
        (await_status cq_a))

let write_hook_fires () =
  Util.run_fiber (fun e ->
      let _a, b, qa, _qb, cq_a, _ = Util.qp_pair e in
      let mr_b = Rdma.Mr.register b ~size:64 ~access:Rdma.Verbs.access_rw in
      let seen = ref [] in
      Rdma.Mr.watch mr_b ~off:0 ~len:(Rdma.Mr.size mr_b) (fun ~off ~len ->
          seen := (off, len) :: !seen);
      Rdma.Qp.post_write qa ~wr_id:1 ~src:(Bytes.make 8 'x') ~src_off:0 ~len:8 ~mr:mr_b
        ~dst_off:24;
      ignore (Rdma.Cq.await cq_a);
      Alcotest.(check (list (pair int int))) "hook saw the write" [ (24, 8) ] !seen)

(* --- two-sided Send/Receive ------------------------------------------------ *)

let send_recv_roundtrip () =
  Util.run_fiber (fun e ->
      let _a, _b, qa, qb, cq_a, cq_b = Util.qp_pair e in
      let dst = Bytes.make 16 '.' in
      Rdma.Qp.post_recv qb ~wr_id:7 ~dst ~dst_off:4 ~max_len:8;
      Rdma.Qp.post_send qa ~wr_id:1 ~src:(Bytes.of_string "two-side") ~src_off:0 ~len:8;
      let send_wc = Rdma.Cq.await cq_a in
      Alcotest.check Util.check_status "send ok" Rdma.Verbs.Success send_wc.Rdma.Verbs.status;
      let recv_wc = Rdma.Cq.await cq_b in
      Alcotest.check Util.check_status "recv ok" Rdma.Verbs.Success recv_wc.Rdma.Verbs.status;
      check_int "recv wr_id" 7 recv_wc.Rdma.Verbs.wr_id;
      check_int "byte_len" 8 recv_wc.Rdma.Verbs.byte_len;
      Alcotest.(check string) "payload landed at offset" "....two-side...."
        (Bytes.to_string dst))

let send_before_recv_waits () =
  (* RNR semantics: the send completes only after a buffer is posted. *)
  Util.run_fiber (fun e ->
      let _a, b, qa, qb, cq_a, _cq_b = Util.qp_pair e in
      Rdma.Qp.post_send qa ~wr_id:1 ~src:(Bytes.of_string "early") ~src_off:0 ~len:5;
      let dst = Bytes.make 8 '\000' in
      Sim.Host.spawn b ~name:"late-recv" (fun () ->
          Sim.Engine.sleep e 50_000;
          Rdma.Qp.post_recv qb ~wr_id:2 ~dst ~dst_off:0 ~max_len:8);
      let t0 = Sim.Engine.now e in
      let wc = Rdma.Cq.await cq_a in
      Alcotest.check Util.check_status "eventually ok" Rdma.Verbs.Success wc.Rdma.Verbs.status;
      check "waited for the receive" true (Sim.Engine.now e - t0 >= 50_000);
      Alcotest.(check string) "delivered" "early"
        (Bytes.to_string (Bytes.sub dst 0 5)))

let sends_consume_recvs_in_order () =
  Util.run_fiber (fun e ->
      let _a, _b, qa, qb, cq_a, cq_b = Util.qp_pair e in
      let bufs = Array.init 3 (fun _ -> Bytes.make 8 '\000') in
      Array.iteri (fun i b -> Rdma.Qp.post_recv qb ~wr_id:i ~dst:b ~dst_off:0 ~max_len:8) bufs;
      check_int "3 posted" 3 (Rdma.Qp.posted_recvs qb);
      for i = 1 to 3 do
        let msg = Bytes.of_string (Printf.sprintf "msg%d...." i) in
        Rdma.Qp.post_send qa ~wr_id:(10 + i) ~src:msg ~src_off:0 ~len:8
      done;
      for _ = 1 to 3 do
        ignore (Rdma.Cq.await cq_a)
      done;
      for i = 0 to 2 do
        let wc = Rdma.Cq.await cq_b in
        check_int "fifo buffer order" i wc.Rdma.Verbs.wr_id;
        Alcotest.(check string) "fifo payload"
          (Printf.sprintf "msg%d...." (i + 1))
          (Bytes.to_string bufs.(i))
      done;
      check_int "all consumed" 0 (Rdma.Qp.posted_recvs qb))

let send_overflow_breaks_connection () =
  Util.run_fiber (fun e ->
      let _a, _b, qa, qb, cq_a, cq_b = Util.qp_pair e in
      Rdma.Qp.post_recv qb ~wr_id:1 ~dst:(Bytes.make 4 '\000') ~dst_off:0 ~max_len:4;
      Rdma.Qp.post_send qa ~wr_id:2 ~src:(Bytes.make 16 'x') ~src_off:0 ~len:16;
      let send_wc = Rdma.Cq.await cq_a in
      check "send failed" true (send_wc.Rdma.Verbs.status <> Rdma.Verbs.Success);
      let recv_wc = Rdma.Cq.await cq_b in
      check "recv errored" true (recv_wc.Rdma.Verbs.status <> Rdma.Verbs.Success);
      check "responder errored" true (Rdma.Qp.state qb = Rdma.Verbs.Err);
      ignore e)

let send_to_dead_host_times_out () =
  Util.run_fiber (fun e ->
      let _a, b, qa, _qb, cq_a, _ = Util.qp_pair e in
      Sim.Host.kill_host b;
      Rdma.Qp.post_send qa ~wr_id:1 ~src:(Bytes.make 4 'x') ~src_off:0 ~len:4;
      Alcotest.check Util.check_status "timeout" Rdma.Verbs.Operation_timeout
        ((Rdma.Cq.await cq_a).Rdma.Verbs.status);
      ignore e)

(* --- Permission switch mechanisms (Fig. 2) -------------------------------- *)

let qp_flags_switch_quiescent () =
  Util.run_fiber (fun e ->
      let a, _b, qa, _qb, _, _ = Util.qp_pair e in
      ignore a;
      let t0 = Sim.Engine.now e in
      (match Rdma.Perm.change_qp_flags qa Rdma.Verbs.access_ro with
      | Ok () -> ()
      | Error `Qp_error -> Alcotest.fail "quiescent switch must not error");
      let dt = Sim.Engine.now e - t0 in
      check "took ~120us" true (dt > 80_000 && dt < 250_000);
      check "flags applied" true ((Rdma.Qp.access qa).Rdma.Verbs.remote_write = false))

(* A switch on a pair with an end in ERR skips the flag change and takes
   the QP restart, which brings both ends back. *)
let qp_restart_switch () =
  Util.run_fiber (fun e ->
      let _a, _b, qa, qb, _, _ = Util.qp_pair e in
      Rdma.Qp.set_state qb Rdma.Verbs.Err;
      let t0 = Sim.Engine.now e in
      let path = Rdma.Perm.fast_slow_switch qa Rdma.Verbs.access_ro in
      let dt = Sim.Engine.now e - t0 in
      check "slow path" true (path = `Slow);
      check "took ~1.2ms (10x flags, Fig. 2)" true (dt > 800_000 && dt < 2_500_000);
      check "both ends operational" true
        (Rdma.Qp.state qa = Rdma.Verbs.Rts && Rdma.Qp.state qb = Rdma.Verbs.Rts);
      check "flags applied" true ((Rdma.Qp.access qa).Rdma.Verbs.remote_write = false))

(* --- Reconnect ------------------------------------------------------------- *)

let both_err qa qb = Rdma.Qp.state qa = Rdma.Verbs.Err && Rdma.Qp.state qb = Rdma.Verbs.Err

let reconnect_restores_both_ends () =
  Util.run_fiber (fun e ->
      let _a, _b, qa, qb, _, _ = Util.qp_pair e in
      Rdma.Qp.set_state qa Rdma.Verbs.Err;
      Rdma.Qp.set_state qb Rdma.Verbs.Err;
      let t0 = Sim.Engine.now e in
      Rdma.Qp.reconnect qa;
      let dt = Sim.Engine.now e - t0 in
      check "charged the QP restart" true (dt > 800_000 && dt < 2_500_000);
      check "both ends in RTS" true
        (Rdma.Qp.state qa = Rdma.Verbs.Rts && Rdma.Qp.state qb = Rdma.Verbs.Rts);
      check "access kept" true (Rdma.Qp.access qb = Rdma.Verbs.access_rw))

(* The handshake cannot cross a blocked link or reach a dead NIC: both ends
   stay in ERR, and the attempt still costs the cycle. *)
let reconnect_fails_when_unreachable () =
  let attempt cut =
    Util.run_fiber (fun e ->
        let _a, b, qa, qb, _, _ = Util.qp_pair e in
        Rdma.Qp.set_state qa Rdma.Verbs.Err;
        cut e b;
        let t0 = Sim.Engine.now e in
        Rdma.Qp.reconnect qa;
        let dt = Sim.Engine.now e - t0 in
        check "charged the QP restart" true (dt > 800_000 && dt < 2_500_000);
        check "both ends stay in ERR" true (both_err qa qb))
  in
  attempt (fun e _ -> Sim.Fabric.block (Sim.Engine.fabric e) ~src:1 ~dst:0);
  attempt (fun _ b -> Sim.Host.kill_host b)

(* A retired pair is replaced, never revived; a pair already cycling is
   left to the cycle in progress. Neither attempt costs anything. *)
let reconnect_leaves_retired_and_cycling_pairs () =
  Util.run_fiber (fun e ->
      let _a, _b, qa, qb, _, _ = Util.qp_pair e in
      Rdma.Qp.disconnect qa;
      let t0 = Sim.Engine.now e in
      Rdma.Qp.reconnect qb;
      check "free" true (Sim.Engine.now e = t0);
      check "retired pair stays down" true (both_err qa qb));
  Util.run_fiber (fun e ->
      let _a, _b, qc, qd, _, _ = Util.qp_pair e in
      Rdma.Qp.set_state qc Rdma.Verbs.Err;
      let second = ref (-1) in
      Sim.Engine.spawn e ~name:"second" (fun () ->
          Sim.Engine.sleep e 1_000;
          let t1 = Sim.Engine.now e in
          Rdma.Qp.reconnect qd;
          second := Sim.Engine.now e - t1);
      Rdma.Qp.reconnect qc;
      check_int "second reconnect did nothing" 0 !second;
      check "one cycle brought both back" true
        (Rdma.Qp.state qc = Rdma.Verbs.Rts && Rdma.Qp.state qd = Rdma.Verbs.Rts))

let rereg_scales_with_size () =
  Util.run_fiber (fun e ->
      let a = Util.host e ~id:0 in
      let small = Rdma.Mr.register a ~size:1024 ~access:Rdma.Verbs.access_rw in
      let large = Rdma.Mr.register a ~size:(64 * 1024 * 1024) ~access:Rdma.Verbs.access_rw in
      let time mr =
        let t0 = Sim.Engine.now e in
        Rdma.Perm.rereg_mr mr Rdma.Verbs.access_ro;
        Sim.Engine.now e - t0
      in
      let ts = time small and tl = time large in
      check "large MR much slower" true (tl > 3 * ts))

let flags_hazard_with_inflight () =
  (* With operations in flight, the flag switch sometimes errors — the
     reason Mu needs the fast-slow path (§5.2). *)
  Util.run_fiber (fun e ->
      let _a, b, qa, qb, cq_a, _ = Util.qp_pair e in
      let mr_b = Rdma.Mr.register b ~size:64 ~access:Rdma.Verbs.access_rw in
      let errors = ref 0 in
      let stop = ref false in
      Sim.Host.spawn b ~name:"switcher" (fun () ->
          while not !stop do
            (* Wait until a write from [a] is in flight. *)
            while (not !stop) && Rdma.Qp.outstanding qa = 0 do
              Sim.Engine.sleep e 50
            done;
            if not !stop then
              match Rdma.Perm.change_qp_flags qb Rdma.Verbs.access_rw with
              | Ok () -> ()
              | Error `Qp_error ->
                incr errors;
                Rdma.Qp.reconnect qb
          done);
      let i = ref 0 in
      while !i < 2_000 && !errors = 0 do
        incr i;
        Rdma.Qp.post_write qa ~wr_id:!i ~src:(Bytes.make 8 'x') ~src_off:0 ~len:8 ~mr:mr_b
          ~dst_off:0;
        ignore (Rdma.Cq.await cq_a)
      done;
      stop := true;
      check "hazard observed" true (!errors > 0))

let fast_slow_switch_always_lands () =
  Util.run_fiber (fun e ->
      let _a, _b, qa, _qb, _, _ = Util.qp_pair e in
      check "fast path" true (Rdma.Perm.fast_slow_switch qa Rdma.Verbs.access_ro = `Fast);
      check "state operational" true (Rdma.Qp.state qa = Rdma.Verbs.Rts);
      check "flags applied" true ((Rdma.Qp.access qa).Rdma.Verbs.remote_write = false))

let suite =
  [
    ("mr register and bounds", `Quick, mr_register_and_bounds);
    ("mr typed access", `Quick, mr_typed_access);
    ("mr alias shares memory", `Quick, mr_alias_shares_memory);
    ("write delivers data", `Quick, write_delivers_data);
    ("post zero costs like write", `Quick, post_zero_costs_like_write);
    ("write takes time", `Quick, write_takes_time);
    ("write inline snapshot", `Quick, write_inline_snapshot);
    ("read returns data", `Quick, read_returns_data);
    ("read snapshot at arrival", `Quick, read_snapshot_at_arrival);
    ("writes fifo order", `Quick, writes_fifo_order);
    ("payload size affects latency", `Quick, payload_size_affects_latency);
    ("write denied by qp flags", `Quick, write_denied_by_qp_flags);
    ("read allowed when write denied", `Quick, read_allowed_when_write_denied);
    ("write denied by mr flags", `Quick, write_denied_by_mr_flags);
    ("write denied out of bounds", `Quick, write_denied_out_of_bounds);
    ("write denied invalidated mr", `Quick, write_denied_invalidated_mr);
    ("post on err qp flushes", `Quick, post_on_err_qp_flushes);
    ("repair after error", `Quick, repair_after_error);
    ("paused process still serves", `Quick, paused_process_still_serves);
    ("stopped process still serves", `Quick, stopped_process_still_serves);
    ("dead host times out", `Quick, dead_host_times_out);
    ("partition times out", `Quick, partition_times_out);
    ("write hook fires", `Quick, write_hook_fires);
    ("send/recv roundtrip", `Quick, send_recv_roundtrip);
    ("send before recv waits (RNR)", `Quick, send_before_recv_waits);
    ("sends consume recvs in order", `Quick, sends_consume_recvs_in_order);
    ("send overflow breaks connection", `Quick, send_overflow_breaks_connection);
    ("send to dead host times out", `Quick, send_to_dead_host_times_out);
    ("perm: qp flags quiescent", `Quick, qp_flags_switch_quiescent);
    ("perm: qp restart", `Quick, qp_restart_switch);
    ("perm: rereg scales with size", `Quick, rereg_scales_with_size);
    ("perm: flags hazard with inflight", `Quick, flags_hazard_with_inflight);
    ("perm: fast-slow always lands", `Quick, fast_slow_switch_always_lands);
    ("reconnect restores both ends", `Quick, reconnect_restores_both_ends);
    ("reconnect fails when unreachable", `Quick, reconnect_fails_when_unreachable);
    ("reconnect leaves retired and cycling pairs", `Quick,
     reconnect_leaves_retired_and_cycling_pairs);
  ]

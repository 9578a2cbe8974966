(* Tests for the permission management plane (§5.2): request/ack arrays,
   single-writer invariant, grant generations, revocation. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_cluster f =
  let e = Util.engine () in
  let smr = Util.mu_cluster e in
  let result = ref None in
  Sim.Engine.spawn e ~name:"driver" (fun () ->
      result := Some (f e smr);
      Mu.Smr.stop smr;
      Sim.Engine.halt e);
  Sim.Engine.run ~until:60_000_000_000 e;
  match !result with Some r -> r | None -> Alcotest.fail "scenario did not finish"

(* Run [f] inside a fiber on [r]'s host and wait for it. *)
let on_replica (r : Mu.Replica.t) f =
  let done_ = Sim.Engine.Ivar.create (Mu.Replica.engine r) in
  Sim.Host.spawn r.Mu.Replica.host ~name:"test-op" (fun () ->
      Sim.Engine.Ivar.fill done_ (f ()));
  Sim.Engine.Ivar.read done_

let request_and_ack () =
  with_cluster (fun e smr ->
      let r1 = Mu.Smr.replica smr 1 in
      let gen = on_replica r1 (fun () -> Mu.Permissions.request_permissions r1) in
      Util.wait_for
        (fun () -> List.length (Mu.Permissions.acked r1 ~gen) >= 3)
        e;
      Alcotest.(check (list int)) "all three ack" [ 0; 1; 2 ] (Mu.Permissions.acked r1 ~gen))

let grant_revokes_previous_holder () =
  with_cluster (fun e smr ->
      let r0 = Mu.Smr.replica smr 0 in
      let r1 = Mu.Smr.replica smr 1 and r2 = Mu.Smr.replica smr 2 in
      (* First r1 requests and gets write access everywhere. *)
      let gen1 = on_replica r1 (fun () -> Mu.Permissions.request_permissions r1) in
      Util.wait_for (fun () -> List.length (Mu.Permissions.acked r1 ~gen:gen1) >= 3) e;
      check "r2 granted r1" true (r2.Mu.Replica.perm_holder = Some 1);
      (* Then r0 requests; every replica must revoke r1 and grant r0. *)
      let gen0 = on_replica r0 (fun () -> Mu.Permissions.request_permissions r0) in
      Util.wait_for (fun () -> List.length (Mu.Permissions.acked r0 ~gen:gen0) >= 3) e;
      check "r2 now grants r0" true (r2.Mu.Replica.perm_holder = Some 0);
      check "r1's own log now held by r0" true (r1.Mu.Replica.perm_holder = Some 0);
      (* The QP toward the deposed holder is read-only again. *)
      let p1_at_r2 = Mu.Replica.peer r2 1 in
      check "r1's access revoked at r2" false
        (Rdma.Qp.access p1_at_r2.Mu.Replica.repl_qp).Rdma.Verbs.remote_write)

let single_writer_invariant () =
  with_cluster (fun e smr ->
      (* Fire requests from both contenders concurrently and repeatedly;
         after things settle, each replica grants write access to at most
         one replica. *)
      let r1 = Mu.Smr.replica smr 1 and r2 = Mu.Smr.replica smr 2 in
      for _ = 1 to 5 do
        ignore (on_replica r1 (fun () -> Mu.Permissions.request_permissions r1));
        ignore (on_replica r2 (fun () -> Mu.Permissions.request_permissions r2));
        Sim.Engine.sleep e 300_000
      done;
      Sim.Engine.sleep e 5_000_000;
      Array.iter
        (fun (r : Mu.Replica.t) ->
          let writers =
            List.filter
              (fun (p : Mu.Replica.peer) ->
                (Rdma.Qp.access p.Mu.Replica.repl_qp).Rdma.Verbs.remote_write)
              r.Mu.Replica.peers
          in
          check
            (Printf.sprintf "replica %d grants at most one writer" r.Mu.Replica.id)
            true
            (List.length writers <= 1))
        (Mu.Smr.replicas smr))

let stale_generation_not_reacked () =
  with_cluster (fun e smr ->
      let r1 = Mu.Smr.replica smr 1 in
      let gen1 = on_replica r1 (fun () -> Mu.Permissions.request_permissions r1) in
      Util.wait_for (fun () -> List.length (Mu.Permissions.acked r1 ~gen:gen1) >= 3) e;
      let gen2 = on_replica r1 (fun () -> Mu.Permissions.request_permissions r1) in
      check "generations increase" true (Int64.compare gen2 gen1 > 0);
      Util.wait_for (fun () -> List.length (Mu.Permissions.acked r1 ~gen:gen2) >= 3) e;
      (* Ack slots now carry gen2; gen1 is no longer acked anywhere. *)
      check_int "old generation gone" 0 (List.length (Mu.Permissions.acked r1 ~gen:gen1)))

let requests_served_in_id_order () =
  with_cluster (fun e smr ->
      (* Write both requests into r2's array at the same instant; the
         management thread must serve the lower id first, so the higher id
         ends up as the final holder only if it was served second. *)
      let r2 = Mu.Smr.replica smr 2 in
      Rdma.Mr.set_i64 r2.Mu.Replica.bg_mr ~off:(Mu.Replica.bg_req_offset 1) 1000L;
      Rdma.Mr.set_i64 r2.Mu.Replica.bg_mr ~off:(Mu.Replica.bg_req_offset 0) 1000L;
      Util.wait_for
        (fun () ->
          Option.value (Mu.Replica.Itbl.find_opt r2.Mu.Replica.last_granted 0) ~default:0L = 1000L
          && Option.value (Mu.Replica.Itbl.find_opt r2.Mu.Replica.last_granted 1) ~default:0L = 1000L)
        e;
      (* Served 0 then 1: final holder is 1. *)
      check "holder is the higher id (served last)" true
        (r2.Mu.Replica.perm_holder = Some 1))

let deposed_writer_fails_fast () =
  with_cluster (fun e smr ->
      let r1 = Mu.Smr.replica smr 1 in
      let gen1 = on_replica r1 (fun () -> Mu.Permissions.request_permissions r1) in
      Util.wait_for (fun () -> List.length (Mu.Permissions.acked r1 ~gen:gen1) >= 3) e;
      (* r1 can write r2's log. *)
      let p2 = Mu.Replica.peer r1 2 in
      let ok =
        on_replica r1 (fun () ->
            Rdma.Qp.post_write p2.Mu.Replica.repl_qp ~wr_id:(Mu.Replica.fresh_wr_id r1)
              ~src:(Bytes.make 8 'x') ~src_off:0 ~len:8 ~mr:p2.Mu.Replica.remote_log_mr
              ~dst_off:Mu.Log.min_proposal_offset;
            (Rdma.Cq.await r1.Mu.Replica.repl_cq).Rdma.Verbs.status)
      in
      check "write allowed while holder" true (ok = Rdma.Verbs.Success);
      (* Depose r1. *)
      let r0 = Mu.Smr.replica smr 0 in
      let gen0 = on_replica r0 (fun () -> Mu.Permissions.request_permissions r0) in
      Util.wait_for (fun () -> List.length (Mu.Permissions.acked r0 ~gen:gen0) >= 3) e;
      let st =
        on_replica r1 (fun () ->
            Rdma.Qp.post_write p2.Mu.Replica.repl_qp ~wr_id:(Mu.Replica.fresh_wr_id r1)
              ~src:(Bytes.make 8 'y') ~src_off:0 ~len:8 ~mr:p2.Mu.Replica.remote_log_mr
              ~dst_off:Mu.Log.min_proposal_offset;
            (Rdma.Cq.await r1.Mu.Replica.repl_cq).Rdma.Verbs.status)
      in
      check "deposed writer's write fails" true (st <> Rdma.Verbs.Success))

let self_grant_fences_others () =
  with_cluster (fun e smr ->
      let r1 = Mu.Smr.replica smr 1 in
      let r0 = Mu.Smr.replica smr 0 in
      (* r1 becomes holder of r0's log... *)
      let gen1 = on_replica r1 (fun () -> Mu.Permissions.request_permissions r1) in
      Util.wait_for (fun () -> List.length (Mu.Permissions.acked r1 ~gen:gen1) >= 3) e;
      check "r0 grants r1" true (r0.Mu.Replica.perm_holder = Some 1);
      (* ...then r0 requests permission (including from itself); its own
         module must revoke r1. *)
      let gen0 = on_replica r0 (fun () -> Mu.Permissions.request_permissions r0) in
      Util.wait_for (fun () -> List.length (Mu.Permissions.acked r0 ~gen:gen0) >= 3) e;
      check "r0 holds its own log" true (r0.Mu.Replica.perm_holder = Some 0);
      let p1_at_r0 = Mu.Replica.peer r0 1 in
      check "r1 fenced out of r0's log" false
        (Rdma.Qp.access p1_at_r0.Mu.Replica.repl_qp).Rdma.Verbs.remote_write)

let suite =
  [
    ("request and ack", `Quick, request_and_ack);
    ("grant revokes previous holder", `Quick, grant_revokes_previous_holder);
    ("single writer invariant", `Quick, single_writer_invariant);
    ("stale generation not re-acked", `Quick, stale_generation_not_reacked);
    ("requests served in id order", `Quick, requests_served_in_id_order);
    ("deposed writer fails fast", `Quick, deposed_writer_fails_fast);
    ("self grant fences others", `Quick, self_grant_fences_others);
  ]

(* Tests for the reusable RDMA layer of §6: the QP exchange (connection
   bootstrap + region directory). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Exchange --------------------------------------------------------------- *)

let exchange_dial_connects () =
  Util.run_fiber (fun e ->
      let x = Rdma.Exchange.create e in
      let a = Util.host e ~id:0 and b = Util.host e ~id:1 in
      Rdma.Exchange.listen x ~host:b ~service:"log"
        ~make_cq:(fun () -> Rdma.Cq.create e)
        ~access:Rdma.Verbs.access_rw ();
      let mr_b = Rdma.Mr.register b ~size:64 ~access:Rdma.Verbs.access_rw in
      Rdma.Exchange.advertise x ~host:b ~name:"log-mr" mr_b;
      let cq_a = Rdma.Cq.create e in
      let qp = Rdma.Exchange.dial x ~host:a ~peer:"h1" ~service:"log" ~cq:cq_a () in
      check "connected" true (Rdma.Qp.state qp = Rdma.Verbs.Rts);
      (* Use the advertised region handle exactly like an exchanged rkey. *)
      let remote = Rdma.Exchange.lookup x ~peer:"h1" ~name:"log-mr" in
      Rdma.Qp.post_write qp ~wr_id:1 ~src:(Bytes.of_string "via-exch") ~src_off:0 ~len:8
        ~mr:remote ~dst_off:0;
      Alcotest.check Util.check_status "write lands" Rdma.Verbs.Success
        (Rdma.Cq.await cq_a).Rdma.Verbs.status;
      Alcotest.(check string) "data" "via-exch"
        (Bytes.to_string (Rdma.Mr.get_bytes mr_b ~off:0 ~len:8)))

let exchange_tracks_accepted () =
  let e = Util.engine () in
  let x = Rdma.Exchange.create e in
  let srv = Util.host e ~id:0 in
  Rdma.Exchange.listen x ~host:srv ~service:"svc" ~make_cq:(fun () -> Rdma.Cq.create e) ();
  for i = 1 to 3 do
    let h = Util.host e ~id:i in
    ignore (Rdma.Exchange.dial x ~host:h ~peer:"h0" ~service:"svc" ~cq:(Rdma.Cq.create e) ())
  done;
  let acc = Rdma.Exchange.accepted x ~host:srv ~service:"svc" in
  check_int "three accepted" 3 (List.length acc);
  Alcotest.(check (list string)) "dialer names" [ "h3"; "h2"; "h1" ] (List.map fst acc)

let exchange_rejects_duplicate_listener () =
  let e = Util.engine () in
  let x = Rdma.Exchange.create e in
  let h = Util.host e ~id:0 in
  Rdma.Exchange.listen x ~host:h ~service:"s" ~make_cq:(fun () -> Rdma.Cq.create e) ();
  check "raises" true
    (try
       Rdma.Exchange.listen x ~host:h ~service:"s" ~make_cq:(fun () -> Rdma.Cq.create e) ();
       false
     with Invalid_argument _ -> true)

let exchange_unknown_service () =
  let e = Util.engine () in
  let x = Rdma.Exchange.create e in
  let h = Util.host e ~id:0 in
  check "raises Not_found" true
    (try
       ignore (Rdma.Exchange.dial x ~host:h ~peer:"nobody" ~service:"s" ~cq:(Rdma.Cq.create e) ());
       false
     with Not_found -> true)

let suite =
  [
    ("exchange: dial connects and advertises", `Quick, exchange_dial_connects);
    ("exchange: tracks accepted", `Quick, exchange_tracks_accepted);
    ("exchange: rejects duplicate listener", `Quick, exchange_rejects_duplicate_listener);
    ("exchange: unknown service", `Quick, exchange_unknown_service);
  ]

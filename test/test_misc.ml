(* Edge-case coverage: configuration validation, proposal-number
   uniqueness, background-plane layout, calibration sanity, CQ timeouts,
   and the per-replica counters' rendering. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Config ------------------------------------------------------------- *)

let config_validation () =
  let bad cfg =
    try
      Mu.Config.validate cfg;
      false
    with Invalid_argument _ -> true
  in
  check "n = 0" true (bad { Mu.Config.default with Mu.Config.n = 0 });
  check "tiny log vs slack" true
    (bad { Mu.Config.default with Mu.Config.log_slots = 10; recycle_slack = 64 });
  check "zero value cap" true (bad { Mu.Config.default with Mu.Config.value_cap = 0 });
  check "zero batch" true (bad { Mu.Config.default with Mu.Config.max_batch = 0 });
  check "zero outstanding" true
    (bad { Mu.Config.default with Mu.Config.max_outstanding = 0 });
  Mu.Config.validate Mu.Config.default;
  check_int "majority of 3" 2 (Mu.Config.majority Mu.Config.default);
  check_int "majority of 5" 3 (Mu.Config.majority { Mu.Config.default with Mu.Config.n = 5 });
  check_int "majority of 4" 3 (Mu.Config.majority { Mu.Config.default with Mu.Config.n = 4 })

(* --- proposal numbers ----------------------------------------------------- *)

let proposal_numbers_unique_and_increasing () =
  let e = Util.engine () in
  let replicas = Mu.Replica.create_cluster e Util.default_cal Mu.Config.default in
  let seen = Hashtbl.create 64 in
  let last = Array.make 3 0L in
  for round = 1 to 50 do
    Array.iteri
      (fun i r ->
        let above = if round mod 3 = 0 then last.((i + 1) mod 3) else last.(i) in
        let p = Mu.Replica.fresh_prop_num r ~above in
        check "strictly above" true (Int64.compare p above > 0);
        check "strictly increasing per replica" true (Int64.compare p last.(i) > 0);
        check "globally unique" false (Hashtbl.mem seen p);
        Hashtbl.replace seen p ();
        last.(i) <- p)
      replicas
  done

(* --- background-plane layout ----------------------------------------------- *)

let bg_layout_disjoint () =
  let cells =
    [ ("hb", Mu.Replica.bg_hb_offset); ("head", Mu.Replica.bg_log_head_offset) ]
    @ List.init 8 (fun i -> (Printf.sprintf "req%d" i, Mu.Replica.bg_req_offset i))
    @ List.init 8 (fun i -> (Printf.sprintf "ack%d" i, Mu.Replica.bg_ack_offset i))
  in
  List.iteri
    (fun i (na, a) ->
      List.iteri
        (fun j (nb, b) ->
          if i < j then
            check (Printf.sprintf "%s/%s disjoint" na nb) true (abs (a - b) >= 8))
        cells)
    cells;
  List.iter
    (fun (_, off) -> check "inside the MR" true (off + 8 <= Mu.Replica.bg_size ~n:3))
    cells

(* --- calibration sanity ------------------------------------------------------ *)

let calibration_relationships () =
  let c = Sim.Calibration.default in
  check "flags 10x faster than restart (Fig. 2)" true
    (Sim.Distribution.mean c.Sim.Calibration.perm_qp_restart
    > 5.0 *. Sim.Distribution.mean c.Sim.Calibration.perm_qp_flags);
  check "detection window ~600us" true
    (let reads =
       (c.Sim.Calibration.score_max - c.Sim.Calibration.score_fail + 1)
       * c.Sim.Calibration.fd_read_interval
     in
     reads > 450_000 && reads < 750_000);
  check "4 GiB rereg ~100ms (Fig. 2)" true
    (let d = Sim.Calibration.mr_rereg_time c ~bytes:(4 * 1024 * 1024 * 1024) in
     let m = Sim.Distribution.mean d in
     m > 60.0e6 && m < 140.0e6);
  check "hb faster than fd reads" true
    (c.Sim.Calibration.hb_increment_interval < c.Sim.Calibration.fd_read_interval)

(* --- CQ behaviour ------------------------------------------------------------- *)

let cq_await_timeout () =
  Util.run_fiber (fun e ->
      let cq = Rdma.Cq.create e in
      let t0 = Sim.Engine.now e in
      check "empty poll" true (Rdma.Cq.poll cq = None);
      check "timeout" true (Rdma.Cq.await_timeout cq 5_000 = None);
      check_int "waited" 5_000 (Sim.Engine.now e - t0);
      Rdma.Cq.push cq { Rdma.Verbs.wr_id = 1; kind = `Write; status = Rdma.Verbs.Success; byte_len = 0 };
      check_int "pending" 1 (Rdma.Cq.pending cq);
      check "delivered" true (Rdma.Cq.await_timeout cq 5_000 <> None))

(* --- metrics rendering ---------------------------------------------------------- *)

let metrics_totals () =
  let m = Mu.Metrics.create () in
  m.Mu.Metrics.proposes <- 7;
  m.Mu.Metrics.aborts <- 1;
  m.Mu.Metrics.perm_fast_path <- 2;
  Alcotest.(check string) "pp renders"
    "proposes=7 commits=0 aborts=1 prepares=0 accepts=0 catch-up=0 update=0 grown=0 \
     perm-req=0 perm-grant=0 fast/slow=2/0 fd-reads=0 applied=0 recycled=0 recycle-skips=0 \
     recycler-errors=0"
    (Fmt.str "%a" Mu.Metrics.pp m)

(* --- failover models -------------------------------------------------------------- *)

let failover_models_ordering () =
  let rng = Sim.Rng.create 3L in
  let med d =
    let s = Sim.Stats.Samples.create () in
    for _ = 1 to 500 do
      Sim.Stats.Samples.add s (int_of_float (Baselines.Failover_model.sample_us d rng))
    done;
    Sim.Stats.Samples.median s
  in
  let hc = med Baselines.Failover_model.hovercraft in
  let hermes = med Baselines.Failover_model.hermes in
  check "hovercraft ~10ms" true (hc > 7_000 && hc < 14_000);
  check "hermes >= 150ms" true (hermes >= 140_000);
  check "ordering (paper §1)" true (hc < hermes)

(* --- sharded router ----------------------------------------------------------------- *)

let shard_router_stable_and_bounded () =
  let e = Util.engine () in
  let s =
    Mu.Sharded.create e Util.default_cal Mu.Config.default ~shards:4
      ~make_app:(fun ~shard:_ ~replica:_ -> Mu.Smr.stateless_app Fun.id)
  in
  check_int "shards" 4 (Mu.Sharded.shards s);
  let hits = Array.make 4 0 in
  for i = 0 to 999 do
    let k = Printf.sprintf "key-%d" i in
    let sh = Mu.Sharded.shard_of_key s k in
    check "bounded" true (sh >= 0 && sh < 4);
    check_int "stable" sh (Mu.Sharded.shard_of_key s k);
    hits.(sh) <- hits.(sh) + 1
  done;
  Array.iter (fun h -> check "roughly balanced" true (h > 100 && h < 500)) hits

let suite =
  [
    ("config validation", `Quick, config_validation);
    ("proposal numbers unique", `Quick, proposal_numbers_unique_and_increasing);
    ("bg layout disjoint", `Quick, bg_layout_disjoint);
    ("calibration relationships", `Quick, calibration_relationships);
    ("cq await timeout", `Quick, cq_await_timeout);
    ("metrics totals", `Quick, metrics_totals);
    ("failover models ordering", `Quick, failover_models_ordering);
    ("shard router stable and bounded", `Quick, shard_router_stable_and_bounded);
  ]

(* Shared helpers for the test suite. *)

let engine ?(seed = 7L) () = Sim.Engine.create ~seed ()

(* Run [f] as a fiber and drive the simulation until it finishes; returns
   f's result. Fails the test if the simulation drains without completing
   (deadlock) or exceeds [until]. *)
let run_fiber ?until ?(seed = 7L) f =
  let e = engine ~seed () in
  let result = ref None in
  Sim.Engine.spawn e ~name:"test" (fun () -> result := Some (f e));
  Sim.Engine.run ?until e;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "test fiber did not complete (deadlock or time limit)"

(* Same, but the body gets the engine and may spawn more fibers; the
   engine keeps running after the body finishes until drained or [until]. *)
let run_scenario ?until ?(seed = 7L) setup =
  let e = engine ~seed () in
  setup e;
  Sim.Engine.run ?until e;
  e

let default_cal = Sim.Calibration.default

let host ?(cal = default_cal) e ~id = Sim.Host.create e cal ~id ~name:(Printf.sprintf "h%d" id)

(* A connected QP pair on two fresh hosts, both fully open. *)
let qp_pair ?(cal = default_cal) e =
  let a = host ~cal e ~id:0 and b = host ~cal e ~id:1 in
  let cq_a = Rdma.Cq.create e and cq_b = Rdma.Cq.create e in
  let qa = Rdma.Qp.create a ~cq:cq_a and qb = Rdma.Qp.create b ~cq:cq_b in
  Rdma.Qp.connect qa qb;
  Rdma.Qp.set_access qa Rdma.Verbs.access_rw;
  Rdma.Qp.set_access qb Rdma.Verbs.access_rw;
  (a, b, qa, qb, cq_a, cq_b)

let bytes_of_string = Bytes.of_string

let check_status = Alcotest.testable Rdma.Verbs.pp_wc_status ( = )

(* A small Mu cluster with all planes running (no client service). *)
let mu_cluster ?(cal = default_cal) ?(cfg = Mu.Config.default) e =
  let smr =
    Mu.Smr.create e cal cfg ~make_app:(fun _ -> Mu.Smr.stateless_app (fun _ -> Bytes.empty))
  in
  Mu.Smr.start ~client_service:false smr;
  smr

let wait_for pred e =
  let deadline = Sim.Engine.now e + 5_000_000_000 in
  while (not (pred ())) && Sim.Engine.now e < deadline do
    Sim.Engine.sleep e 20_000
  done;
  if not (pred ()) then Alcotest.fail "wait_for: condition not reached in 5 sim-seconds"

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let leader_of smr e =
  wait_for
    (fun () -> match Mu.Smr.leader smr with Some _ -> true | None -> false)
    e;
  Option.get (Mu.Smr.leader smr)

(* --- chaos rows --------------------------------------------------------- *)

(* A named scenario as a default chaos spec. *)
let chaos_named ~n ~seed name =
  Workload.Chaos.spec ~seed ~n (Option.get (Faults.Scenario.by_name ~n name))

(* A traced chaos run: its outcome and Chrome trace bytes. *)
let chaos_traced spec =
  let tr = Trace.Tracer.create ~capacity:65536 () in
  let o = Workload.Chaos.run ~on_engine:(Trace.Tracer.attach tr) spec in
  (o, Trace.Tracer.chrome_string tr)

(* One chaos row: the spec runs twice; both runs must give the same
   outcome text and trace bytes, and pass (completed, linearizable,
   invariant-clean) with at least [min_ops] ops and, if
   [rejoin], a completed rejoin. *)
let chaos_row ?(min_ops = 1) ?(rejoin = false) spec =
  let o1, t1 = chaos_traced spec in
  let o2, t2 = chaos_traced spec in
  let line = Fmt.str "%a" Workload.Chaos.pp_outcome o1 in
  Alcotest.(check string) "same outcome text" line (Fmt.str "%a" Workload.Chaos.pp_outcome o2);
  Alcotest.(check bool) (line ^ ": same trace bytes") true (String.equal t1 t2);
  Alcotest.(check bool) (line ^ ": passes") true (Workload.Chaos.passed o1);
  Alcotest.(check bool) (line ^ ": history non-trivial") true (o1.Workload.Chaos.ops >= min_ops);
  if rejoin then
    Alcotest.(check bool) (line ^ ": rejoin completed") true (o1.Workload.Chaos.rejoins <> [])

(* The sharded rows: two groups of three, two clients per shard × 20 ops
   at 100 us think time, faults on shard 0. *)
let chaos_sharded ?config name =
  let s = chaos_named ~n:3 ~seed:41L name in
  {
    s with
    Workload.Chaos.config = Option.value config ~default:s.Workload.Chaos.config;
    shards = 2;
    clients = Random { clients = 2; ops = 20; think = 100_000 };
  }

type t = {
  engine : Sim.Engine.t;
  cal : Sim.Calibration.t;
  hosts : Sim.Host.t array;
  mrs : Rdma.Mr.t array;
  qps : Rdma.Qp.t array array;
  cqs : Rdma.Cq.t array;
  mutable wr_seq : int;
}

let create engine cal ~n ~mr_size =
  let hosts =
    Array.init n (fun id -> Sim.Host.create engine cal ~id ~name:(Printf.sprintf "node%d" id))
  in
  let mrs =
    Array.map (fun h -> Rdma.Mr.register h ~size:mr_size ~access:Rdma.Verbs.access_rw) hosts
  in
  let cqs = Array.init n (fun _ -> Rdma.Cq.create engine) in
  let dummy = Rdma.Qp.create hosts.(0) ~cq:cqs.(0) in
  let qps = Array.make_matrix n n dummy in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let qi = Rdma.Qp.create hosts.(i) ~cq:cqs.(i) in
      let qj = Rdma.Qp.create hosts.(j) ~cq:cqs.(j) in
      Rdma.Qp.connect qi qj;
      Rdma.Qp.set_access qi Rdma.Verbs.access_rw;
      Rdma.Qp.set_access qj Rdma.Verbs.access_rw;
      qps.(i).(j) <- qi;
      qps.(j).(i) <- qj
    done
  done;
  { engine; cal; hosts; mrs; qps; cqs; wr_seq = 0 }

let n t = Array.length t.hosts
let majority t = (n t / 2) + 1

let write_to t ~src ~dst ~data ~off =
  t.wr_seq <- t.wr_seq + 1;
  Rdma.Qp.post_write t.qps.(src).(dst) ~wr_id:t.wr_seq ~src:data ~src_off:0
    ~len:(Bytes.length data) ~mr:t.mrs.(dst) ~dst_off:off

let await_successes t ~node ~count =
  for _ = 1 to count do
    let wc = Rdma.Cq.await t.cqs.(node) in
    match wc.Rdma.Verbs.status with
    | Rdma.Verbs.Success -> ()
    | st -> failwith (Fmt.str "baseline: operation failed: %a" Rdma.Verbs.pp_wc_status st)
  done

type engine = { name : string; replicate : Bytes.t -> int }

(* When the simulation engine carries a metrics registry, wrap replicate
   so every measured span also lands in the shared
   baseline_replication_latency_ns histogram, making baselines directly
   comparable with Mu's mu_replication_latency_ns in one export. *)
let with_telemetry t e =
  match Sim.Engine.metrics t.engine with
  | None -> e
  | Some reg ->
    let h =
      Telemetry.Registry.histogram reg ~help:"Baseline replication latency"
        ~labels:[ ("system", e.name) ] "baseline_replication_latency_ns"
    in
    {
      e with
      replicate =
        (fun payload ->
          let ns = e.replicate payload in
          Telemetry.Hdr.record h ns;
          ns);
    }

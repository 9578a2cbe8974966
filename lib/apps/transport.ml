type kind = Tcp_memcached | Tcp_redis | Erpc | Herd_rdma

let payload_size = function
  | Erpc -> 32
  | Herd_rdma -> 50
  | Tcp_memcached | Tcp_redis -> 64

type t = { kind : kind; dist : Sim.Distribution.t; rng : Sim.Rng.t }

let create kind cal rng =
  let dist =
    match kind with
    | Tcp_memcached -> cal.Sim.Calibration.tcp_rtt_memcached
    | Tcp_redis -> cal.Sim.Calibration.tcp_rtt_redis
    | Erpc -> cal.Sim.Calibration.erpc_rtt
    | Herd_rdma -> cal.Sim.Calibration.herd_rtt
  in
  { kind; dist; rng }

let rtt_sample t = Sim.Distribution.sample_ns t.dist t.rng
let request_leg _t rtt = rtt / 2
let response_leg _t rtt = rtt - (rtt / 2)

let app_compute kind cal =
  match kind with
  | Erpc -> cal.Sim.Calibration.order_match
  | Tcp_memcached | Tcp_redis | Herd_rdma -> cal.Sim.Calibration.kv_op

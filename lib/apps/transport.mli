(** Client↔server transport models for the end-to-end experiments (§7.2).

    The paper's applications differ mainly in how clients reach the
    service:

    - {b Memcached / Redis}: TCP from a different cluster — client-to-
      client latencies in the hundreds of microseconds (Fig. 5, right).
    - {b Liquibook}: eRPC — a few microseconds with a long tail ("This
      variance comes from the client-server communication of Liquibook,
      which is based on eRPC", §7.2).
    - {b HERD}: RDMA-based key-value store — ~2 µs client-to-client.

    Each model samples a full round-trip from the calibrated distribution
    and splits it into request and response legs; the server-side compute
    and (optional) replication happen between the legs. *)

type kind = Tcp_memcached | Tcp_redis | Erpc | Herd_rdma

val payload_size : kind -> int
(** The paper's request sizes: 32 B for Liquibook, 50 B for HERD, 64 B
    default for the TCP stores (Fig. 3). *)

type t

val create : kind -> Sim.Calibration.t -> Sim.Rng.t -> t

val rtt_sample : t -> int
(** One full round-trip sample (ns), excluding server time. *)

val request_leg : t -> int -> int
(** Split an {!rtt_sample} into the client→server leg... returns the
    request-leg duration for a given sampled RTT. *)

val response_leg : t -> int -> int

val app_compute : kind -> Sim.Calibration.t -> int
(** Server-side compute per request for the application this transport
    fronts (order matching vs. KV operation). *)

(** An executable HERD-style RDMA key-value server (Kalia et al.,
    SIGCOMM'14) — the paper's exemplar microsecond application (§7).

    HERD's request path: clients RDMA-Write their request into a
    dedicated slot of the server's request region; the server CPU polls
    the slots, executes the operation, and pushes the response back into
    the client's response region. Both directions are one-sided, so a
    GET costs one write + server poll/execute + one write — a couple of
    microseconds client-to-client.

    This module runs that protocol for real on the simulated fabric (the
    `Transport.Herd_rdma` distribution is the calibrated shortcut used by
    the fig. 5 harness; this is the long way round, and the two agree).
    The [handler] makes the server generic: plain KV for an unreplicated
    HERD, or capture-replicate-execute for HERD-over-Mu as in Fig. 1. *)

type server

val server :
  Sim.Engine.t ->
  Sim.Calibration.t ->
  host:Sim.Host.t ->
  clients:int ->
  handler:(bytes -> bytes) ->
  server
(** Start a server on [host] with [clients] request slots. [handler] runs
    on the server host's fiber (its execution time must be modelled by the
    caller via {!Sim.Host.cpu} if nonzero). *)

type client

val connect : server -> id:int -> host:Sim.Host.t -> client
(** Attach client [id] (0-based, < [clients]) from its own host. *)

val call : client -> bytes -> bytes
(** One RPC: write the request, await the response (fiber context). *)

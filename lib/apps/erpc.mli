(** An eRPC-style RPC layer (Kalia et al., NSDI'19) over two-sided
    Send/Receive — the transport the paper used to build the client-server
    Liquibook it then replicated with Mu (§7: "We created an unreplicated
    client-server version of Liquibook using eRPC, and then replicated
    this system using Mu").

    A server endpoint keeps receive buffers posted and answers each
    request with a Send; clients do the same in the other direction. On
    top of the raw fabric cost, each call charges a calibrated client-side
    overhead with a heavy tail — the RPC-layer and client-stack variance
    to which the paper attributes Liquibook's wide latency distribution
    even unreplicated (§7.2: "This variance comes from the client-server
    communication of Liquibook, which is based on eRPC"). *)

type server

val server :
  Sim.Engine.t ->
  Sim.Calibration.t ->
  host:Sim.Host.t ->
  handler:(bytes -> bytes) ->
  server
(** Start an RPC server; [handler] executes on the server host. *)

type client

val connect : server -> host:Sim.Host.t -> client

val call : client -> bytes -> bytes
(** One RPC (fiber context). *)

(** Pure executable reference models of the two replicated applications.

    These are the specifications the conformance runner checks the real
    cluster against (DESIGN.md §19): no engine, no RDMA, no mutation —
    just [apply : model -> op -> model * response] over persistent data
    structures. Deliberately written against the application {e
    semantics} (the .mli contracts), not the implementations, so a bug in
    the optimized imperative code cannot be mirrored here by
    construction. *)

(** {1 Key-value store}

    The reference for {!Apps.Kv_store}: a string map plus the per-client
    (request id → reply) memo that gives exactly-once semantics on
    at-least-once delivery. *)

module Kv : sig
  type t

  val empty : t

  val apply :
    t -> client:int -> req_id:int -> Apps.Kv_store.command -> t * Apps.Kv_store.reply
  (** Execute with duplicate suppression. Sessions are monotone: a
      client's ids increase, so a [req_id] at or below the client's last
      applied id is a duplicate. It leaves the map alone and returns the
      reply recorded for the client's last request. This is the contract
      {!Apps.Kv_store.apply_dedup} implements. *)

  val find : t -> string -> string option
end

(** {1 Order book}

    The reference for {!Apps.Order_book} driven through
    {!Apps.Exchange.command}: price-time priority over persistent sorted
    lists, producing the exact event sequence the real engine emits —
    fills in maker order, [Done] on exhaustion, IOC market orders,
    cancel/replace with the time-priority rules of the .mli. *)

module Book : sig
  type t

  val empty : t

  val apply : t -> Apps.Exchange.command -> t * Apps.Order_book.event list

  val open_orders : t -> int
  val open_qty : t -> Apps.Order_book.side -> int
end

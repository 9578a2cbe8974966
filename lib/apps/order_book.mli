(** A price-time-priority limit order book — our implementation of the
    order matching engine the paper replicates (Liquibook, §7).

    At the heart of a financial exchange is the matching engine: parties
    submit buy and sell orders; the engine crosses them. This module
    implements the standard continuous double auction:

    - {b Price priority}: a buy matches the lowest-priced ask first, a
      sell the highest-priced bid.
    - {b Time priority}: within a price level, orders fill
      first-in-first-out.
    - {b Partial fills}: an order may trade against several resting
      orders; an unfilled remainder of a limit order rests on the book.
    - {b Market orders} fill at the best available prices; any remainder
      is cancelled (immediate-or-cancel).
    - {b Cancel / replace}: resting orders can be cancelled or have price
      or quantity amended; a price change or quantity increase loses time
      priority, a pure decrease keeps it.

    Prices are integer ticks, quantities integer lots. The engine is
    deterministic — a requirement for state machine replication (§2.2). *)

type side = Buy | Sell

type event =
  | Accepted of { id : int }
      (** Order entered the book (possibly after partial fills). *)
  | Filled of { taker : int; maker : int; price : int; qty : int }
      (** A trade: the incoming [taker] crossed resting order [maker]. *)
  | Done of { id : int }  (** Order fully filled and removed. *)
  | Cancelled of { id : int; remaining : int }
  | Replaced of { id : int }
  | Rejected of { id : int; reason : string }

val pp_event : event Fmt.t

type t

val create : unit -> t

val submit_limit : t -> id:int -> side:side -> price:int -> qty:int -> event list
(** Match what crosses; rest the remainder. Rejects duplicate ids and
    non-positive price or quantity. *)

val submit_market : t -> id:int -> side:side -> qty:int -> event list
(** Match against the book; never rests (IOC). *)

val cancel : t -> id:int -> event list
val replace : t -> id:int -> price:int option -> qty:int -> event list
(** [price = None] keeps the current price. *)

(** {1 Inspection} *)

val best_bid : t -> (int * int) option
(** Best bid (price, total resting quantity). *)

val best_ask : t -> (int * int) option

val depth : t -> side -> levels:int -> (int * int) list
(** Top price levels, best first. *)

val open_order_count : t -> int
val open_qty : t -> side -> int
(** Total resting quantity on one side (for conservation checks). *)

val trades_executed : t -> int
val volume_traded : t -> int

(** {1 Serialization} — for SMR checkpoints (§5.4). *)

val snapshot : t -> Bytes.t
val restore : Bytes.t -> t

type side = Buy | Sell

type event =
  | Accepted of { id : int }
  | Filled of { taker : int; maker : int; price : int; qty : int }
  | Done of { id : int }
  | Cancelled of { id : int; remaining : int }
  | Replaced of { id : int }
  | Rejected of { id : int; reason : string }

let pp_event ppf = function
  | Accepted { id } -> Fmt.pf ppf "accepted(%d)" id
  | Filled { taker; maker; price; qty } ->
    Fmt.pf ppf "filled(taker=%d,maker=%d,%d@@%d)" taker maker qty price
  | Done { id } -> Fmt.pf ppf "done(%d)" id
  | Cancelled { id; remaining } -> Fmt.pf ppf "cancelled(%d,rem=%d)" id remaining
  | Replaced { id } -> Fmt.pf ppf "replaced(%d)" id
  | Rejected { id; reason } -> Fmt.pf ppf "rejected(%d,%s)" id reason

type order = {
  id : int;
  side : side;
  mutable price : int;
  mutable qty : int;
  mutable live : bool;  (* false once filled/cancelled; lazily purged *)
}

module Prices = Map.Make (Int)

(* A price level is a FIFO of orders; dead orders are skipped and purged
   when encountered, so cancel is O(1). *)
type level = { mutable fifo : order Queue.t; mutable total : int }

type t = {
  mutable bids : level Prices.t;
  mutable asks : level Prices.t;
  orders : (int, order) Hashtbl.t;
  mutable trades : int;
  mutable volume : int;
}

let create () =
  { bids = Prices.empty; asks = Prices.empty; orders = Hashtbl.create 256; trades = 0; volume = 0 }

let book_side t side = match side with Buy -> t.bids | Sell -> t.asks

let set_side t side m = match side with Buy -> t.bids <- m | Sell -> t.asks <- m

let best t side =
  let m = book_side t side in
  match side with Buy -> Prices.max_binding_opt m | Sell -> Prices.min_binding_opt m

(* Drop dead orders from the head of a level; remove the level if empty. *)
let rec settle_level t side price (lvl : level) =
  match Queue.peek_opt lvl.fifo with
  | Some o when not o.live ->
    ignore (Queue.pop lvl.fifo);
    settle_level t side price lvl
  | Some _ -> ()
  | None -> set_side t side (Prices.remove price (book_side t side))

let rest t (o : order) =
  let m = book_side t o.side in
  let lvl =
    match Prices.find_opt o.price m with
    | Some lvl -> lvl
    | None ->
      let lvl = { fifo = Queue.create (); total = 0 } in
      set_side t o.side (Prices.add o.price lvl m);
      lvl
  in
  Queue.push o lvl.fifo;
  lvl.total <- lvl.total + o.qty;
  Hashtbl.replace t.orders o.id o

let crosses ~taker_side ~limit ~maker_price =
  match taker_side, limit with
  | _, None -> true (* market order *)
  | Buy, Some l -> maker_price <= l
  | Sell, Some l -> maker_price >= l

(* Match [taker] against the opposite side while prices cross; returns the
   events generated, in order. *)
let match_incoming t ~taker_id ~taker_side ~limit ~qty =
  let events = ref [] in
  let emit e = events := e :: !events in
  let maker_side = match taker_side with Buy -> Sell | Sell -> Buy in
  let remaining = ref qty in
  let continue_ = ref true in
  while !continue_ && !remaining > 0 do
    match best t maker_side with
    | None -> continue_ := false
    | Some (price, lvl) ->
      settle_level t maker_side price lvl;
      (match Queue.peek_opt lvl.fifo with
      | None -> () (* level vanished; loop finds the next one *)
      | Some maker ->
        if not (crosses ~taker_side ~limit ~maker_price:price) then continue_ := false
        else begin
          let traded = min !remaining maker.qty in
          maker.qty <- maker.qty - traded;
          lvl.total <- lvl.total - traded;
          remaining := !remaining - traded;
          t.trades <- t.trades + 1;
          t.volume <- t.volume + traded;
          emit (Filled { taker = taker_id; maker = maker.id; price; qty = traded });
          if maker.qty = 0 then begin
            maker.live <- false;
            Hashtbl.remove t.orders maker.id;
            ignore (Queue.pop lvl.fifo);
            settle_level t maker_side price lvl;
            emit (Done { id = maker.id })
          end
        end);
      if Prices.is_empty (book_side t maker_side) then continue_ := false
  done;
  (!remaining, List.rev !events)

let submit_limit t ~id ~side ~price ~qty =
  if Hashtbl.mem t.orders id then [ Rejected { id; reason = "duplicate id" } ]
  else if price <= 0 || qty <= 0 then [ Rejected { id; reason = "bad price/qty" } ]
  else begin
    let remaining, events = match_incoming t ~taker_id:id ~taker_side:side ~limit:(Some price) ~qty in
    if remaining > 0 then begin
      rest t { id; side; price; qty = remaining; live = true };
      events @ [ Accepted { id } ]
    end
    else events @ [ Done { id } ]
  end

let submit_market t ~id ~side ~qty =
  if Hashtbl.mem t.orders id then [ Rejected { id; reason = "duplicate id" } ]
  else if qty <= 0 then [ Rejected { id; reason = "bad qty" } ]
  else begin
    let remaining, events = match_incoming t ~taker_id:id ~taker_side:side ~limit:None ~qty in
    if remaining = qty then events @ [ Rejected { id; reason = "no liquidity" } ]
    else if remaining > 0 then events @ [ Cancelled { id; remaining } ]
    else events @ [ Done { id } ]
  end

let cancel t ~id =
  match Hashtbl.find_opt t.orders id with
  | None -> [ Rejected { id; reason = "unknown order" } ]
  | Some o ->
    o.live <- false;
    Hashtbl.remove t.orders id;
    let m = book_side t o.side in
    (match Prices.find_opt o.price m with
    | Some lvl ->
      lvl.total <- lvl.total - o.qty;
      settle_level t o.side o.price lvl
    | None -> ());
    [ Cancelled { id; remaining = o.qty } ]

let replace t ~id ~price ~qty =
  match Hashtbl.find_opt t.orders id with
  | None -> [ Rejected { id; reason = "unknown order" } ]
  | Some o ->
    let new_price = Option.value price ~default:o.price in
    if qty <= 0 || new_price <= 0 then [ Rejected { id; reason = "bad price/qty" } ]
    else if new_price = o.price && qty <= o.qty then begin
      (* Pure size decrease keeps time priority. *)
      (match Prices.find_opt o.price (book_side t o.side) with
      | Some lvl -> lvl.total <- lvl.total - (o.qty - qty)
      | None -> ());
      o.qty <- qty;
      [ Replaced { id } ]
    end
    else begin
      (* Price change or size increase: cancel and re-enter, losing time
         priority (and possibly matching immediately). *)
      let _ = cancel t ~id in
      let events = submit_limit t ~id ~side:o.side ~price:new_price ~qty in
      Replaced { id }
      :: List.filter (function Accepted _ -> false | _ -> true) events
    end

let level_stats (price, (lvl : level)) = (price, lvl.total)

let best_bid t = Option.map level_stats (Prices.max_binding_opt t.bids)
let best_ask t = Option.map level_stats (Prices.min_binding_opt t.asks)

let depth t side ~levels =
  let m = book_side t side in
  let bindings = Prices.bindings m in
  let ordered = match side with Buy -> List.rev bindings | Sell -> bindings in
  List.filteri (fun i _ -> i < levels) ordered |> List.map level_stats

let open_order_count t = Hashtbl.length t.orders

let open_qty t side =
  Hashtbl.fold (fun _ o acc -> if o.side = side then acc + o.qty else acc) t.orders 0

let trades_executed t = t.trades
let volume_traded t = t.volume

(* Snapshot: the set of live resting orders plus counters. Replay of the
   restore rebuilds identical book structure because insertion order within
   a level is captured. *)
let snapshot t =
  let buf = Buffer.create 256 in
  let add_i32 v =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    Buffer.add_bytes buf b
  in
  add_i32 t.trades;
  add_i32 t.volume;
  let dump side =
    let m = book_side t side in
    Prices.iter
      (fun price lvl ->
        Queue.iter
          (fun o ->
            if o.live then begin
              add_i32 o.id;
              add_i32 (match o.side with Buy -> 0 | Sell -> 1);
              add_i32 price;
              add_i32 o.qty
            end)
          lvl.fifo)
      m
  in
  dump Buy;
  dump Sell;
  Buffer.to_bytes buf

let restore data =
  let t = create () in
  let get_i32 off = Int32.to_int (Bytes.get_int32_le data off) in
  t.trades <- get_i32 0;
  t.volume <- get_i32 4;
  let off = ref 8 in
  while !off + 16 <= Bytes.length data do
    let id = get_i32 !off in
    let side = if get_i32 (!off + 4) = 0 then Buy else Sell in
    let price = get_i32 (!off + 8) in
    let qty = get_i32 (!off + 12) in
    rest t { id; side; price; qty; live = true };
    off := !off + 16
  done;
  t

(* Pure reference models (DESIGN.md §19). Everything here is persistent:
   apply returns a new model, never mutates. *)

module SMap = Map.Make (String)
module IMap = Map.Make (Int)

module Kv = struct
  type t = {
    table : string SMap.t;
    last : (int * Apps.Kv_store.reply) IMap.t;  (* client -> last (req, reply) *)
  }

  let empty = { table = SMap.empty; last = IMap.empty }

  let eval table cmd =
    match cmd with
    | Apps.Kv_store.Get { key } -> (
      ( table,
        match SMap.find_opt key table with
        | Some v -> Apps.Kv_store.Value v
        | None -> Apps.Kv_store.Not_found ))
    | Apps.Kv_store.Put { key; value } ->
      (SMap.add key value table, Apps.Kv_store.Stored)
    | Apps.Kv_store.Delete { key } ->
      if SMap.mem key table then (SMap.remove key table, Apps.Kv_store.Deleted)
      else (table, Apps.Kv_store.Not_found)

  let apply t ~client ~req_id cmd =
    match IMap.find_opt client t.last with
    | Some (last, reply) when req_id <= last -> (t, reply)
    | Some _ | None ->
      let table, reply = eval t.table cmd in
      ({ table; last = IMap.add client (req_id, reply) t.last }, reply)

  let find t key = SMap.find_opt key t.table
end

module Book = struct
  (* A resting order carries the sequence number of its (re-)entry into
     the book: price-time priority is the lexicographic order on
     (price, seq) — best price first, oldest entry first within it. *)
  type resting = { o_id : int; o_side : Apps.Order_book.side; o_price : int; o_qty : int; o_seq : int }

  type t = { resting : resting list; next_seq : int }

  let empty = { resting = []; next_seq = 0 }

  let open_orders t = List.length t.resting

  let open_qty t side =
    List.fold_left
      (fun acc o -> if o.o_side = side then acc + o.o_qty else acc)
      0 t.resting

  let find t id = List.find_opt (fun o -> o.o_id = id) t.resting
  let remove t id = { t with resting = List.filter (fun o -> o.o_id <> id) t.resting }

  (* Best maker on [side]: max price for bids, min for asks; oldest seq
     within a price level. *)
  let best t side =
    let better a b =
      if a.o_price <> b.o_price then
        match side with
        | Apps.Order_book.Buy -> a.o_price > b.o_price
        | Apps.Order_book.Sell -> a.o_price < b.o_price
      else a.o_seq < b.o_seq
    in
    List.fold_left
      (fun acc o ->
        if o.o_side <> side then acc
        else match acc with Some b when better b o -> acc | _ -> Some o)
      None t.resting

  let crosses ~taker_side ~limit ~maker_price =
    match (taker_side, limit) with
    | _, None -> true
    | Apps.Order_book.Buy, Some l -> maker_price <= l
    | Apps.Order_book.Sell, Some l -> maker_price >= l

  let rec match_incoming t ~taker_id ~taker_side ~limit ~remaining acc =
    if remaining = 0 then (t, remaining, List.rev acc)
    else
      let maker_side =
        match taker_side with
        | Apps.Order_book.Buy -> Apps.Order_book.Sell
        | Apps.Order_book.Sell -> Apps.Order_book.Buy
      in
      match best t maker_side with
      | Some maker when crosses ~taker_side ~limit ~maker_price:maker.o_price ->
        let traded = min remaining maker.o_qty in
        let fill =
          Apps.Order_book.Filled
            { taker = taker_id; maker = maker.o_id; price = maker.o_price; qty = traded }
        in
        if traded = maker.o_qty then
          match_incoming (remove t maker.o_id) ~taker_id ~taker_side ~limit
            ~remaining:(remaining - traded)
            (Apps.Order_book.Done { id = maker.o_id } :: fill :: acc)
        else
          let t =
            {
              t with
              resting =
                List.map
                  (fun o ->
                    if o.o_id = maker.o_id then { o with o_qty = o.o_qty - traded }
                    else o)
                  t.resting;
            }
          in
          match_incoming t ~taker_id ~taker_side ~limit ~remaining:(remaining - traded)
            (fill :: acc)
      | _ -> (t, remaining, List.rev acc)

  let submit_limit t ~id ~side ~price ~qty =
    if find t id <> None then
      (t, [ Apps.Order_book.Rejected { id; reason = "duplicate id" } ])
    else if price <= 0 || qty <= 0 then
      (t, [ Apps.Order_book.Rejected { id; reason = "bad price/qty" } ])
    else
      let t, remaining, events =
        match_incoming t ~taker_id:id ~taker_side:side ~limit:(Some price)
          ~remaining:qty []
      in
      if remaining > 0 then
        ( {
            resting =
              { o_id = id; o_side = side; o_price = price; o_qty = remaining; o_seq = t.next_seq }
              :: t.resting;
            next_seq = t.next_seq + 1;
          },
          events @ [ Apps.Order_book.Accepted { id } ] )
      else (t, events @ [ Apps.Order_book.Done { id } ])

  let submit_market t ~id ~side ~qty =
    if find t id <> None then
      (t, [ Apps.Order_book.Rejected { id; reason = "duplicate id" } ])
    else if qty <= 0 then (t, [ Apps.Order_book.Rejected { id; reason = "bad qty" } ])
    else
      let t, remaining, events =
        match_incoming t ~taker_id:id ~taker_side:side ~limit:None ~remaining:qty []
      in
      if remaining = qty then
        (t, events @ [ Apps.Order_book.Rejected { id; reason = "no liquidity" } ])
      else if remaining > 0 then
        (t, events @ [ Apps.Order_book.Cancelled { id; remaining } ])
      else (t, events @ [ Apps.Order_book.Done { id } ])

  let cancel t ~id =
    match find t id with
    | None -> (t, [ Apps.Order_book.Rejected { id; reason = "unknown order" } ])
    | Some o ->
      (remove t id, [ Apps.Order_book.Cancelled { id; remaining = o.o_qty } ])

  let replace t ~id ~price ~qty =
    match find t id with
    | None -> (t, [ Apps.Order_book.Rejected { id; reason = "unknown order" } ])
    | Some o ->
      let new_price = Option.value price ~default:o.o_price in
      if qty <= 0 || new_price <= 0 then
        (t, [ Apps.Order_book.Rejected { id; reason = "bad price/qty" } ])
      else if new_price = o.o_price && qty <= o.o_qty then
        (* Pure size decrease keeps time priority (same seq). *)
        ( {
            t with
            resting =
              List.map
                (fun r -> if r.o_id = id then { r with o_qty = qty } else r)
                t.resting;
          },
          [ Apps.Order_book.Replaced { id } ] )
      else
        (* Price change or size increase: cancel and re-enter, losing
           time priority (and possibly matching immediately). *)
        let t, _ = cancel t ~id in
        let t, events = submit_limit t ~id ~side:o.o_side ~price:new_price ~qty in
        ( t,
          Apps.Order_book.Replaced { id }
          :: List.filter
               (function Apps.Order_book.Accepted _ -> false | _ -> true)
               events )

  let apply t cmd =
    match cmd with
    | Apps.Exchange.Limit { id; side; price; qty } -> submit_limit t ~id ~side ~price ~qty
    | Apps.Exchange.Market { id; side; qty } -> submit_market t ~id ~side ~qty
    | Apps.Exchange.Cancel { id } -> cancel t ~id
    | Apps.Exchange.Replace { id; price; qty } -> replace t ~id ~price ~qty
end

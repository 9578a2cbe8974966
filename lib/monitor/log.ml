(* Alert log: the chronological firing/clearing edges a monitor
   produced, with enough context (virtual time, epoch, window ordinal)
   to line an alert up against a trace. The JSON export is hand-built
   in insertion order from integers and escaped strings only, so
   equal-seed runs serialize byte-identically. *)

type entry = {
  seq : int;
  at : int;  (* virtual ns *)
  epoch : int;
  window : int;  (* Slo window ordinal *)
  rule : string;
  edge : [ `Fire | `Clear ];
  detail : string;
}

type t = { mutable rev : entry list; mutable n : int; firing : (string, unit) Hashtbl.t }

let create () = { rev = []; n = 0; firing = Hashtbl.create 8 }

let add t ~at ~epoch ~window ~rule ~edge ~detail =
  let e = { seq = t.n; at; epoch; window; rule; edge; detail } in
  t.n <- t.n + 1;
  t.rev <- e :: t.rev;
  (match edge with
  | `Fire -> Hashtbl.replace t.firing rule ()
  | `Clear -> Hashtbl.remove t.firing rule);
  e

let entries t = List.rev t.rev
let length t = t.n

let firing t =
  Hashtbl.fold (fun k () acc -> k :: acc) t.firing [] |> List.sort compare

let edge_name = function `Fire -> "fire" | `Clear -> "clear"

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"schema\":\"mu-monitor-log/1\",\"entries\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"seq\":%d,\"at\":%d,\"epoch\":%d,\"window\":%d,\"rule\":\"%s\",\"edge\":\"%s\",\"detail\":\"%s\"}"
           e.seq e.at e.epoch e.window (escape e.rule) (edge_name e.edge)
           (escape e.detail)))
    (entries t);
  Buffer.add_string b "],\"firing\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      Buffer.add_string b (escape r);
      Buffer.add_char b '"')
    (firing t);
  Buffer.add_string b "]}";
  Buffer.contents b

let pp_entry ppf e =
  Fmt.pf ppf "[%8dus] %-5s %-18s %s"
    (e.at / 1000)
    (edge_name e.edge) e.rule e.detail

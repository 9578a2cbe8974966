(* Alert log: the chronological firing/clearing edges a monitor
   produced, with enough context (virtual time, epoch, window ordinal)
   to line an alert up against a trace. The JSON export is one Json
   value in insertion order, of integers and strings only, so
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

let to_json t =
  let open Json in
  let entry e =
    Obj
      [
        ("seq", num_of_int e.seq);
        ("at", num_of_int e.at);
        ("epoch", num_of_int e.epoch);
        ("window", num_of_int e.window);
        ("rule", Str e.rule);
        ("edge", Str (edge_name e.edge));
        ("detail", Str e.detail);
      ]
  in
  to_string
    (Obj
       [
         ("schema", Str "mu-monitor-log/1");
         ("entries", List (List.map entry (entries t)));
         ("firing", List (List.map (fun r -> Str r) (firing t)));
       ])

let pp_entry ppf e =
  Fmt.pf ppf "[%8dus] %-5s %-18s %s"
    (e.at / 1000)
    (edge_name e.edge) e.rule e.detail

(* Named-metric registry. Instruments are resolved once (at component
   creation) and then updated through a record field write, so the hot
   path never touches the registry; lookup cost is paid only at
   registration. Labels are sorted at registration so a (name, labels)
   pair has one canonical identity, which also makes every exporter's
   iteration order deterministic. *)

type counter = { mutable cv : int }
type gauge = { mutable gv : int }

type kind = Counter of counter | Gauge of gauge | Histogram of Hdr.t

type metric = {
  name : string;
  labels : (string * string) list;  (* sorted by key *)
  help : string;
  kind : kind;
}

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let valid_name name =
  name <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
         || c = '_' || c = ':')
       name

let key name labels =
  String.concat "\x00" (name :: List.concat_map (fun (k, v) -> [ k; v ]) labels)

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

let register t ~name ~labels ~help ~make ~extract ~wanted =
  if not (valid_name name) then invalid_arg ("Registry: invalid metric name " ^ name);
  let labels = List.sort compare labels in
  let k = key name labels in
  match Hashtbl.find_opt t.tbl k with
  | Some m -> (
    match extract m.kind with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Registry: %s already registered as a %s, not a %s" name
           (kind_name m.kind) wanted))
  | None ->
    let v, kind = make () in
    Hashtbl.replace t.tbl k { name; labels; help; kind };
    v

let counter t ?(help = "") ?(labels = []) name =
  register t ~name ~labels ~help ~wanted:"counter"
    ~make:(fun () ->
      let c = { cv = 0 } in
      (c, Counter c))
    ~extract:(function Counter c -> Some c | _ -> None)

let gauge t ?(help = "") ?(labels = []) name =
  register t ~name ~labels ~help ~wanted:"gauge"
    ~make:(fun () ->
      let g = { gv = 0 } in
      (g, Gauge g))
    ~extract:(function Gauge g -> Some g | _ -> None)

let histogram t ?precision ?(help = "") ?(labels = []) name =
  register t ~name ~labels ~help ~wanted:"histogram"
    ~make:(fun () ->
      let h = Hdr.create ?precision () in
      (h, Histogram h))
    ~extract:(function Histogram h -> Some h | _ -> None)

(* Sorted by (name, labels): the canonical order every exporter and the
   sampler iterate in, so equal registry contents export byte-identically. *)
let metrics t =
  Hashtbl.fold (fun _ m acc -> m :: acc) t.tbl []
  |> List.sort (fun a b ->
         match compare a.name b.name with 0 -> compare a.labels b.labels | c -> c)

let find t ?(labels = []) name =
  Hashtbl.find_opt t.tbl (key name (List.sort compare labels))

module Counter = struct
  type t = counter

  let inc c = c.cv <- c.cv + 1
  let add c n = c.cv <- c.cv + n
  let value c = c.cv
end

module Gauge = struct
  type t = gauge

  let set g v = g.gv <- v
  let add g n = g.gv <- g.gv + n
  let value g = g.gv
end

type row = {
  samples : Sim.Stats.Samples.t;
  mutable total_ns : int;
}

type frame = { f_cat : string; f_name : string; f_begin : int }

(* Synchronous spans nest LIFO per (pid, tid); async spans pair by
   (cat, name, id) — they may overlap arbitrarily. *)
type t = {
  rows : (string * string, row) Hashtbl.t; (* (cat, name) -> durations *)
  stacks : (int * int, frame list ref) Hashtbl.t; (* (pid, tid) -> open frames *)
  async_open : (string * string * int, int) Hashtbl.t;
  (* (cat, name, id) -> begin_ts *)
  mutable unmatched : int;
}

let create () =
  {
    rows = Hashtbl.create 32;
    stacks = Hashtbl.create 16;
    async_open = Hashtbl.create 64;
    unmatched = 0;
  }

let row t key =
  match Hashtbl.find_opt t.rows key with
  | Some r -> r
  | None ->
    let r = { samples = Sim.Stats.Samples.create (); total_ns = 0 } in
    Hashtbl.add t.rows key r;
    r

let record t ~cat ~name dur =
  let r = row t (cat, name) in
  Sim.Stats.Samples.add r.samples dur;
  r.total_ns <- r.total_ns + dur

let stack t key =
  match Hashtbl.find_opt t.stacks key with
  | Some s -> s
  | None ->
    let s = ref [] in
    Hashtbl.add t.stacks key s;
    s

(* An end pops until it finds a frame with the same (cat, name),
   counting every skipped frame — a begin whose end was lost, e.g. a
   fiber killed mid-span — as unmatched, and counts the end itself as
   unmatched when no frame matches. *)
let add t (ev : Sim.Probe.event) =
  match ev.kind with
  | Sim.Probe.Span_begin ->
    let s = stack t (ev.pid, ev.tid) in
    s := { f_cat = ev.cat; f_name = ev.name; f_begin = ev.ts } :: !s
  | Sim.Probe.Span_end ->
    let s = stack t (ev.pid, ev.tid) in
    let rec pop = function
      | [] ->
        t.unmatched <- t.unmatched + 1;
        []
      | f :: rest when f.f_cat = ev.cat && f.f_name = ev.name ->
        record t ~cat:f.f_cat ~name:f.f_name (ev.ts - f.f_begin);
        rest
      | _skipped :: rest ->
        t.unmatched <- t.unmatched + 1;
        pop rest
    in
    s := pop !s
  | Sim.Probe.Async_begin ->
    let key = (ev.cat, ev.name, ev.id) in
    if Hashtbl.mem t.async_open key then t.unmatched <- t.unmatched + 1;
    Hashtbl.replace t.async_open key ev.ts
  | Sim.Probe.Async_end -> (
    let key = (ev.cat, ev.name, ev.id) in
    match Hashtbl.find_opt t.async_open key with
    | Some ts ->
      Hashtbl.remove t.async_open key;
      record t ~cat:ev.cat ~name:ev.name (ev.ts - ts)
    | None -> t.unmatched <- t.unmatched + 1)
  | Sim.Probe.Instant | Sim.Probe.Counter | Sim.Probe.Meta_process
  | Sim.Probe.Meta_thread ->
    ()

let unmatched t = t.unmatched

let rows t =
  Hashtbl.fold (fun (cat, name) r acc -> (cat, name, r.samples, r.total_ns) :: acc) t.rows []
  |> List.sort (fun (c1, n1, _, _) (c2, n2, _, _) ->
         match compare c1 c2 with 0 -> compare n1 n2 | c -> c)

let find t ~cat ~name =
  Option.map (fun r -> r.samples) (Hashtbl.find_opt t.rows (cat, name))

let total_ns t ~cat ~name =
  match Hashtbl.find_opt t.rows (cat, name) with Some r -> r.total_ns | None -> 0

let pp ppf t =
  let rows = rows t in
  if rows = [] then Fmt.pf ppf "(no spans recorded)@."
  else begin
    (* Share is relative to the largest total in the category — normally
       the enclosing span, so e.g. failover/perm_switch prints its share
       of failover/total. *)
    let cat_max = Hashtbl.create 8 in
    List.iter
      (fun (cat, _, _, total) ->
        match Hashtbl.find_opt cat_max cat with
        | Some m when m >= total -> ()
        | _ -> Hashtbl.replace cat_max cat total)
      rows;
    Fmt.pf ppf "%-28s %8s %10s %10s %10s %12s %7s@." "category/span" "count"
      "median_us" "p1_us" "p99_us" "total_us" "share";
    List.iter
      (fun (cat, name, samples, total) ->
        let p q = Sim.Stats.ns_to_us (Sim.Stats.Samples.percentile samples q) in
        let denom = Hashtbl.find cat_max cat in
        let share = if denom = 0 then 0. else 100. *. float_of_int total /. float_of_int denom in
        Fmt.pf ppf "%-28s %8d %10.2f %10.2f %10.2f %12.1f %6.1f%%@."
          (cat ^ "/" ^ name)
          (Sim.Stats.Samples.count samples)
          (p 50.) (p 1.) (p 99.)
          (Sim.Stats.ns_to_us total)
          share)
      rows;
    if unmatched t > 0 then Fmt.pf ppf "(%d unmatched span edges)@." (unmatched t)
  end

type row = {
  samples : Sim.Stats.Samples.t;
  mutable total_ns : int;
}

(* Synchronous spans go through the shared Attrib core (which owns the
   per-(pid, tid) stack discipline); async spans pair by (cat, name, id)
   and stay here — they may overlap arbitrarily. The row tables and the
   printed output are byte-identical to the pre-Attrib implementation. *)
type t = {
  rows : (string * string, row) Hashtbl.t; (* (cat, name) -> durations *)
  attrib : Attrib.t;
  async_open : (string * string * int, int) Hashtbl.t;
  (* (cat, name, id) -> begin_ts *)
  mutable async_unmatched : int;
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

let create () =
  let t =
    {
      rows = Hashtbl.create 32;
      attrib = Attrib.create ();
      async_open = Hashtbl.create 64;
      async_unmatched = 0;
    }
  in
  Attrib.on_close t.attrib (fun ~cat ~name ~pid:_ ~tid:_ ~inclusive ~exclusive:_ ->
      record t ~cat ~name inclusive);
  t

let add t (ev : Sim.Probe.event) =
  match ev.kind with
  | Sim.Probe.Span_begin | Sim.Probe.Span_end -> Attrib.add t.attrib ev
  | Sim.Probe.Async_begin ->
    let key = (ev.cat, ev.name, ev.id) in
    if Hashtbl.mem t.async_open key then t.async_unmatched <- t.async_unmatched + 1;
    Hashtbl.replace t.async_open key ev.ts
  | Sim.Probe.Async_end -> (
    let key = (ev.cat, ev.name, ev.id) in
    match Hashtbl.find_opt t.async_open key with
    | Some ts ->
      Hashtbl.remove t.async_open key;
      let dur = ev.ts - ts in
      record t ~cat:ev.cat ~name:ev.name dur
    | None -> t.async_unmatched <- t.async_unmatched + 1)
  | Sim.Probe.Instant | Sim.Probe.Counter | Sim.Probe.Meta_process
  | Sim.Probe.Meta_thread ->
    ()

let unmatched t = t.async_unmatched + Attrib.unmatched t.attrib

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

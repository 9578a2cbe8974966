(* Span-tree exporters: a standalone JSON document (schema
   "mu-provenance/1") and Chrome-trace phases (nestable-async per span +
   flow arrows per causal edge) to overlay on the regular Perfetto
   export.

   Both print through the Json codec: the document as one value, the
   overlay through Trace.Chrome's event printer. Timestamps are integer
   virtual ns (document) or Chrome's fixed-point µs (overlay); spans go
   in ascending id, edges and points in stream order. Same seed =>
   byte-identical output. *)

let strings args = List.map (fun (k, v) -> (k, Json.Str v)) args

let json_string (t : Tree.t) =
  let open Json in
  let span (s : Tree.span) =
    Obj
      [
        ("id", num_of_int s.id);
        ("parent", num_of_int s.parent);
        ("name", Str s.name);
        ("pid", num_of_int s.pid);
        ("tid", num_of_int s.tid);
        ("start", num_of_int s.start);
        ("end", num_of_int s.finish);
        ("sync", Bool s.sync);
        ("args", Obj (strings s.args));
        ("end_args", Obj (strings s.end_args));
        ("children", List (List.map num_of_int s.children));
      ]
  in
  let edge (e : Tree.edge) =
    Obj
      [
        ("src", num_of_int e.src);
        ("dst", num_of_int e.dst);
        ("kind", Str e.ekind);
        ("ts", num_of_int e.ets);
      ]
  in
  let point (p : Tree.point) =
    Obj
      [
        ("span", num_of_int p.span);
        ("name", Str p.pname);
        ("ts", num_of_int p.pts);
        ("pid", num_of_int p.ppid);
        ("args", Obj (strings p.pargs));
      ]
  in
  to_string
    (Obj
       [
         ("schema", Str "mu-provenance/1");
         ("spans", List (List.rev (Tree.fold t (fun acc s -> span s :: acc) [])));
         ("edges", List (List.map edge t.edges));
         ("points", List (List.map point t.points));
         ("dropped", num_of_int t.dropped);
       ])

let write_json path t =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (json_string t))

(* Chrome-trace overlay. Each span becomes a nestable-async "b"/"e" pair
   (id = span id, so Perfetto stacks them into per-process provenance
   tracks); each causal edge becomes a flow "s"->"f" arrow between the two
   span phases. Open spans get no "e" — Perfetto renders them to the end of
   the trace, which is exactly right for lost requests. *)

let trace_events (t : Tree.t) =
  let evs = ref [] in
  Tree.fold t
    (fun () (s : Tree.span) ->
      let phase ph ts args =
        { Trace.Chrome.ph; name = s.name; cat = "prov"; ts; pid = s.pid; id = s.id; args }
      in
      let ids = [ ("span", string_of_int s.id); ("parent", string_of_int s.parent) ] in
      evs := phase "b" s.start (strings (ids @ s.args)) :: !evs;
      if not (Tree.is_open s) then evs := phase "e" s.finish (strings s.end_args) :: !evs)
    ();
  List.iteri
    (fun i (e : Tree.edge) ->
      match Tree.span t e.src, Tree.span t e.dst with
      | Some src, Some dst ->
        (* Flow ids must not collide with span ids used above; offset into
           a disjoint range keyed by edge index. *)
        let id = 0x1000000 + i in
        let flow ph (s : Tree.span) =
          { Trace.Chrome.ph; name = e.ekind; cat = "prov_edge"; ts = e.ets; pid = s.pid; id;
            args = [] }
        in
        evs := flow "f" dst :: flow "s" src :: !evs
      | _ -> ())
    t.edges;
  List.rev !evs

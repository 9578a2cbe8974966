(* Chrome trace-event JSON ("JSON Object Format"), loadable in Perfetto
   (ui.perfetto.dev) and chrome://tracing.

   Determinism: timestamps are integer nanoseconds rendered as fixed-point
   microseconds ("%d.%03d"), numeric args are integers (which the Json
   printer writes exactly up to 2^52), and process/thread metadata is
   emitted in sorted order, so equal seeds produce byte-identical files. *)

(* Host -1 ("no host": scheduler, experiment harness fibers) maps to a
   synthetic high pid — trace viewers dislike negative pids. *)
let engine_pid = 65535
let out_pid p = if p < 0 then engine_pid else p

let fixed_ts ns = Printf.sprintf "%d.%03d" (ns / 1000) (ns mod 1000)

type phase = {
  ph : string;
  name : string;
  cat : string;
  ts : int;
  pid : int;
  id : int;
  args : (string * Json.t) list;
}

(* The one event printer. The phase letter decides the phase-specific
   fields: thread-scoped instants, ids for async and flow phases, and
   the enclosing-slice binding point for flow ends. *)
let add_event b ~ph ~name ~cat ~ts ~pid ~tid ~id args =
  Stdlib.Buffer.add_string b "{\"name\":";
  Json.to_buffer b (Json.Str name);
  Stdlib.Buffer.add_string b ",\"cat\":";
  Json.to_buffer b (Json.Str cat);
  Printf.bprintf b ",\"ph\":\"%s\",\"ts\":%s,\"pid\":%d,\"tid\":%d" ph (fixed_ts ts)
    (out_pid pid) tid;
  (match ph with
  | "i" -> Stdlib.Buffer.add_string b ",\"s\":\"t\""
  | "b" | "e" | "s" | "f" -> Printf.bprintf b ",\"id\":\"0x%x\"" id
  | _ -> ());
  if ph = "f" then Stdlib.Buffer.add_string b ",\"bp\":\"e\"";
  if args <> [] then begin
    Stdlib.Buffer.add_string b ",\"args\":";
    Json.to_buffer b (Json.Obj args)
  end;
  Stdlib.Buffer.add_char b '}'

let add_probe b (ev : Sim.Probe.event) =
  let ph =
    match ev.kind with
    | Sim.Probe.Instant -> "i"
    | Sim.Probe.Span_begin -> "B"
    | Sim.Probe.Span_end -> "E"
    | Sim.Probe.Async_begin -> "b"
    | Sim.Probe.Async_end -> "e"
    | Sim.Probe.Counter -> "C"
    | Sim.Probe.Meta_process -> "M"
    | Sim.Probe.Meta_thread -> "M"
  in
  (* Numeric-looking values go out as JSON numbers so Perfetto can plot
     counters. *)
  let arg (k, v) =
    (k, match int_of_string_opt v with Some n -> Json.num_of_int n | None -> Json.Str v)
  in
  add_event b ~ph ~name:ev.name
    ~cat:(if ev.cat = "" then "sim" else ev.cat)
    ~ts:ev.ts ~pid:ev.pid ~tid:ev.tid ~id:ev.id (List.map arg ev.args)

let add_meta b ~name ~pid ?tid value =
  Printf.bprintf b "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d" name (out_pid pid);
  Option.iter (Printf.bprintf b ",\"tid\":%d") tid;
  Stdlib.Buffer.add_string b ",\"args\":";
  Json.to_buffer b (Json.Obj [ ("name", Json.Str value) ]);
  Stdlib.Buffer.add_char b '}'

let to_buffer b ?(extra = []) ~processes ~threads events =
  Stdlib.Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  let first = ref true in
  let sep () =
    if !first then first := false else Stdlib.Buffer.add_string b ",\n"
  in
  List.iter
    (fun (pid, name) ->
      sep ();
      add_meta b ~name:"process_name" ~pid name)
    processes;
  List.iter
    (fun ((pid, tid), name) ->
      sep ();
      add_meta b ~name:"thread_name" ~pid ~tid name)
    threads;
  List.iter
    (fun ev ->
      sep ();
      add_probe b ev)
    events;
  List.iter
    (fun (p : phase) ->
      sep ();
      add_event b ~ph:p.ph ~name:p.name ~cat:p.cat ~ts:p.ts ~pid:p.pid ~tid:0 ~id:p.id p.args)
    extra;
  Stdlib.Buffer.add_string b "\n]}\n"

let to_string ?extra ~processes ~threads events =
  let b = Stdlib.Buffer.create 65536 in
  to_buffer b ?extra ~processes ~threads events;
  Stdlib.Buffer.contents b

let write_file path ?extra ~processes ~threads events =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?extra ~processes ~threads events))

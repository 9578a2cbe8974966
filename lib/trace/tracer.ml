type t = {
  ring : Buffer.t;
  bd : Breakdown.t;
  procs : (int, string) Hashtbl.t;
  threads : (int * int, string) Hashtbl.t;
}

let create ?(capacity = 65536) () =
  {
    ring = Buffer.create ~capacity;
    bd = Breakdown.create ();
    procs = Hashtbl.create 16;
    threads = Hashtbl.create 64;
  }

let sink t (ev : Sim.Probe.event) =
  match ev.kind with
  | Sim.Probe.Meta_process -> Hashtbl.replace t.procs ev.pid ev.name
  | Sim.Probe.Meta_thread -> Hashtbl.replace t.threads (ev.pid, ev.tid) ev.name
  | _ ->
    (* Breakdown first: it must see every span even if the ring later
       drops the oldest window. *)
    Breakdown.add t.bd ev;
    Buffer.add t.ring ev

let attach t engine = Sim.Probe.set_sink (Sim.Engine.probe engine) (sink t)

let events t = Buffer.to_list t.ring
let recorded t = Buffer.recorded t.ring
let dropped t = Buffer.dropped t.ring
let breakdown t = t.bd

let processes t =
  Hashtbl.fold (fun pid name acc -> (pid, name) :: acc) t.procs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let threads t =
  Hashtbl.fold (fun key name acc -> (key, name) :: acc) t.threads []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let write_chrome t path =
  Chrome.write_file path ~processes:(processes t) ~threads:(threads t) (events t)

let chrome_string t =
  Chrome.to_string ~processes:(processes t) ~threads:(threads t) (events t)

let pp_summary ppf t =
  Fmt.pf ppf "trace: %d events recorded, %d in ring, %d dropped@." (recorded t)
    (Stdlib.List.length (events t))
    (dropped t);
  Breakdown.pp ppf t.bd

type liveness = Running | Paused | Process_stopped | Host_dead

type t = {
  engine : Engine.t;
  calibration : Calibration.t;
  id : int;
  name : string;
  rng : Rng.t;
  mutable state : liveness;
  mutable resume_gate : unit Engine.Ivar.ivar;
  mutable cpu_since_jitter : int;
  mutable next_jitter_at : int;
  tel_jitter : Telemetry.Hdr.t option;
  mutable bells : doorbell list;
  mutable on_liveness : (liveness -> unit) list;
}

(* A parked poller. [origin] and [period] are the poll grid the fiber
   would have slept along; [resume] is its continuation while [parked]. *)
and doorbell = {
  owner : t;
  mutable rung : bool;
  mutable parked : bool;
  mutable origin : int;
  mutable period : int;
  mutable gen : int;
  mutable resume : unit -> unit;
}

let schedule_next_jitter t =
  (* Exponentially-distributed CPU budget until the next descheduling
     event. *)
  let mean = float_of_int t.calibration.Calibration.cpu_jitter_period in
  t.next_jitter_at <- int_of_float (Rng.exponential t.rng ~mean) + 1

let create engine calibration ~id ~name =
  let t =
    {
      engine;
      calibration;
      id;
      name;
      rng = Rng.split (Engine.rng engine);
      state = Running;
      resume_gate = Engine.Ivar.create engine;
      cpu_since_jitter = 0;
      next_jitter_at = max_int;
      tel_jitter =
        (match Engine.metrics engine with
        | Some reg ->
          Some
            (Telemetry.Registry.histogram reg ~help:"Scheduling jitter injected into cpu()"
               ~labels:[ ("host", name) ] "sim_sched_jitter_ns")
        | None -> None);
      bells = [];
      on_liveness = [];
    }
  in
  schedule_next_jitter t;
  if Engine.traced engine || Engine.profiled engine then
    Engine.trace_meta_process engine ~pid:id name;
  t

let engine t = t.engine
let calibration t = t.calibration
let id t = t.id
let name t = t.name
let rng t = t.rng
let liveness t = t.state

let nic_reachable t =
  match t.state with Running | Paused | Process_stopped -> true | Host_dead -> false

let process_alive t = match t.state with Running | Paused -> true | Process_stopped | Host_dead -> false

let park_forever () = Engine.suspend (fun (_ : unit -> unit) -> ())

let rec check t =
  match t.state with
  | Running -> ()
  | Paused ->
    Engine.Ivar.read t.resume_gate;
    check t
  | Process_stopped | Host_dead -> park_forever ()

let cpu t ns =
  check t;
  Engine.sleep t.engine ns;
  t.cpu_since_jitter <- t.cpu_since_jitter + ns;
  if t.cpu_since_jitter >= t.next_jitter_at then begin
    t.cpu_since_jitter <- 0;
    schedule_next_jitter t;
    let jitter = Distribution.sample_ns t.calibration.Calibration.cpu_jitter t.rng in
    (match t.tel_jitter with Some h -> Telemetry.Hdr.record h jitter | None -> ());
    if Engine.traced t.engine then
      Engine.trace_instant t.engine ~pid:t.id
        ~args:[ ("ns", string_of_int jitter) ]
        "sched_jitter";
    Engine.sleep t.engine jitter
  end;
  check t

let idle t ns =
  check t;
  Engine.sleep t.engine ns;
  check t

(* Parking ----------------------------------------------------------------

   A poller that busy-waits on memory sleeps [period] between polls.
   When a poll finds nothing to do, [park] stops scheduling those polls:
   the fiber suspends with no event queued and records its grid (the
   park instant plus multiples of [period]). A store into the memory it
   watches rings the doorbell, and the fiber wakes at the first grid
   instant at or after the store, through the same timer-then-resume
   event pair a sleep uses. A poll observes only memory, so the polls
   skipped in between are exactly the ones that would have seen no
   change. *)

let doorbell t =
  let b =
    { owner = t; rung = true; parked = false; origin = 0; period = 1; gen = 0; resume = ignore }
  in
  t.bells <- b :: t.bells;
  b

let arm b = b.rung <- false

(* First grid instant at or after [at], strictly after the park. *)
let next_tick b at =
  let k = if at <= b.origin then 1 else (at - b.origin + b.period - 1) / b.period in
  b.origin + (Int.max k 1 * b.period)

let unpark b =
  b.parked <- false;
  let resume = b.resume in
  b.resume <- ignore;
  resume

let wake_at b at = Engine.schedule b.owner.engine ~at (unpark b)

let ring b =
  b.rung <- true;
  if b.parked && process_alive b.owner then
    wake_at b (next_tick b (Engine.now b.owner.engine))

let park ?until b ~period =
  let t = b.owner in
  check t;
  if b.rung then begin
    (* Rung since [arm]: the poll may have missed the store, so poll
       again one period on, as the busy loop would. *)
    Engine.sleep t.engine period;
    check t
  end
  else begin
    b.origin <- Engine.now t.engine;
    b.period <- period;
    b.gen <- b.gen + 1;
    (match until with
    | None -> ()
    | Some deadline ->
      (* The first grid instant past the deadline, where the busy loop
         would have noticed it. *)
      let gen = b.gen in
      let at = next_tick b (deadline + 1) in
      Engine.schedule t.engine ~at (fun () -> if b.parked && b.gen = gen then unpark b ()));
    Engine.suspend (fun resume ->
        b.resume <- resume;
        b.parked <- true);
    check t
  end

let on_liveness t f = t.on_liveness <- t.on_liveness @ [ f ]

(* Every transition goes through here: the hooks see the old state and
   the instant, and are told the new one. *)
let transition t next =
  List.iter (fun f -> f next) t.on_liveness;
  t.state <- next

let spawn t ~name f =
  Engine.spawn t.engine ~name:(Printf.sprintf "%s/%s" t.name name) ~pid:t.id (fun () ->
      check t;
      f ())

let pause t =
  match t.state with
  | Running ->
    transition t Paused;
    Engine.trace_instant t.engine ~pid:t.id "host_pause";
    t.resume_gate <- Engine.Ivar.create t.engine;
    (* A busy poller would block on the gate at its next grid tick and
       poll again at the resume instant; wake parked ones at that tick so
       they block in the same order. *)
    List.iter
      (fun b -> if b.parked then wake_at b (next_tick b (Engine.now t.engine)))
      (List.rev t.bells)
  | Paused | Process_stopped | Host_dead -> ()

let resume t =
  match t.state with
  | Paused ->
    transition t Running;
    Engine.trace_instant t.engine ~pid:t.id "host_resume";
    Engine.Ivar.fill t.resume_gate ()
  | Running | Process_stopped | Host_dead -> ()

let stop_process t =
  match t.state with
  | Host_dead -> ()
  | Running | Paused | Process_stopped ->
    transition t Process_stopped;
    Engine.trace_instant t.engine ~pid:t.id "host_stop"

let kill_host t =
  transition t Host_dead;
  Engine.trace_instant t.engine ~pid:t.id "host_kill"

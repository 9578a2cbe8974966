(* Profiler hooks: the whole-run virtual-time profiler (lib/profile)
   registers one of these. The engine attributes the interval between
   consecutive events to the identity captured when the interval-ending
   event was scheduled: [schedule] wraps the thunk with a closure that
   carries (pid, fiber, open span stack), the run loop announces each
   clock advance through [prof_event], and the wrapper claims the
   accumulated interval through [prof_attr] before running the real
   thunk. Everything is a single option check when no profiler is
   attached. *)
type profiler = {
  prof_event : now:int -> unit;
      (* run loop: clock advanced to [now], a thunk is about to fire *)
  prof_attr : pid:int -> tid:int -> spans:int list -> unit;
      (* claim the pending interval for this identity (innermost span first) *)
  prof_fiber : tid:int -> pid:int -> name:string -> unit;
  prof_span : id:int -> name:string -> unit;
  prof_host : pid:int -> name:string -> unit;
}

(* Simulator self-cost sampling: wall-clock spent in the event queue,
   one op in [selfcost_stride] measured so a sampled run stays close to
   full speed. Queue push/pop are allocation-free, so only wall time is
   measured. Wall-clock never feeds the virtual clock, so sampling cannot
   perturb the simulation — it only slows it. *)
let selfcost_stride = 64

type selfcost = {
  sc_clock : unit -> float;
  sc_bias : float; (* wall seconds an empty clock-pair measurement costs *)
  mutable sc_arm : int; (* countdown to the next measured op *)
  mutable sc_queue_ops : int; (* all queue ops (push + pop) *)
  mutable sc_queue_sampled : int; (* ops actually measured *)
  mutable sc_queue_wall : float; (* wall seconds over the sampled ops *)
}

(* A queue op costs tens of ns; the clock pair around it can cost as
   much. Calibrate the empty-measurement floor and subtract it from
   every sample, or the extrapolation charges the clock to the queue. *)
let selfcost_calibrate clock =
  let best = ref infinity in
  for _ = 1 to 128 do
    let c0 = clock () in
    let d = clock () -. c0 in
    if d < !best then best := d
  done;
  !best

let selfcost_create ~clock () =
  {
    sc_clock = clock;
    sc_bias = selfcost_calibrate clock;
    sc_arm = selfcost_stride;
    sc_queue_ops = 0;
    sc_queue_sampled = 0;
    sc_queue_wall = 0.0;
  }

let selfcost_queue sc = (sc.sc_queue_ops, sc.sc_queue_sampled, sc.sc_queue_wall)

(* Every queue op under sampling is one [selfcost_tick], which says
   whether to time it; a timed op reads [sc_clock] before it and hands
   that reading to [selfcost_record] after it. *)
let[@inline] selfcost_tick sc =
  sc.sc_queue_ops <- sc.sc_queue_ops + 1;
  sc.sc_arm <- sc.sc_arm - 1;
  if sc.sc_arm > 0 then false
  else begin
    sc.sc_arm <- selfcost_stride;
    true
  end

let[@inline] selfcost_record sc c0 =
  sc.sc_queue_wall <- sc.sc_queue_wall +. Float.max 0.0 (sc.sc_clock () -. c0 -. sc.sc_bias);
  sc.sc_queue_sampled <- sc.sc_queue_sampled + 1

(* Fixed-delay timer lanes (Varghese & Lauck's observation): timers
   armed at [now + d] with one constant [d] expire in the order they
   were armed, because [now] never decreases and sequence numbers only
   grow. A lane is therefore a FIFO of (key, seq, ticket) whose head is
   its minimum; it needs no wheel placement, no cascade and no closure.
   The lane belongs to the engine and is shared by every owner that arms
   timers with that delay; a ticket carries its owner in the low
   [owner_bits] and the owner's own int above them. Entries live in
   three parallel int rings (grown by doubling): stores into them need
   no write barrier, and they hold no pointer for the GC to follow. *)
let owner_bits = 16
let owner_mask = (1 lsl owner_bits) - 1

type fifo = {
  delay : int;
  mutable keys : int array;
  mutable seqs : int array;
  mutable tickets : int array;
  mutable first : int; (* ring index of the head *)
  mutable len : int;
  mutable fire : (int -> unit) array; (* handler per owner *)
  mutable owners : int;
}

let fifo_create delay =
  {
    delay;
    keys = Array.make 64 0;
    seqs = Array.make 64 0;
    tickets = Array.make 64 0;
    first = 0;
    len = 0;
    fire = [||];
    owners = 0;
  }

let fifo_grow q =
  let cap = Array.length q.keys in
  let copy a =
    let b = Array.make (2 * cap) 0 in
    for i = 0 to q.len - 1 do
      b.(i) <- a.((q.first + i) land (cap - 1))
    done;
    b
  in
  q.keys <- copy q.keys;
  q.seqs <- copy q.seqs;
  q.tickets <- copy q.tickets;
  q.first <- 0

let fifo_push q ~key ~seq ticket =
  if q.len = Array.length q.keys then fifo_grow q;
  let i = (q.first + q.len) land (Array.length q.keys - 1) in
  q.keys.(i) <- key;
  q.seqs.(i) <- seq;
  q.tickets.(i) <- ticket;
  q.len <- q.len + 1

let fifo_pop q =
  let ticket = q.tickets.(q.first) in
  q.first <- (q.first + 1) land (Array.length q.keys - 1);
  q.len <- q.len - 1;
  ticket

let fifo_fire q ticket = q.fire.(ticket land owner_mask) (ticket lsr owner_bits)

type t = {
  mutable now : int;
  mutable seq : int;
  events : (unit -> unit) Wheel.t;
  root_rng : Rng.t;
  mutable halted : bool;
  mutable running : bool;
  mutable limit : int; (* the current [run ~until] limit *)
  mutable fast_forwards : int; (* sleeps continued in place, see [sleep] *)
  mutable lanes : fifo array; (* one per delay, see [lane] *)
  mutable lane_pending : int; (* entries over all lanes *)
  probe : Probe.t;
  fabric : Fabric.t;
  nvm : Nvm.t;
  mutable next_fiber : int;
  mutable cur_fiber : int;
  mutable cur_pid : int;
  (* Provenance: per-request causal spans. Off by default; every span_*
     call below is a single bool check until [set_provenance] opts in AND
     a probe sink is installed, so fault-free runs with provenance off
     emit byte-identical traces and consume the same PRNG stream. *)
  mutable prov : bool;
  mutable next_span : int;
  span_stacks : (int, int list ref) Hashtbl.t; (* fiber id -> open span stack *)
  (* Telemetry: a registry handle for components to resolve their
     instruments from (see [metrics]); the engine itself records nothing. *)
  mutable reg : Telemetry.Registry.t option;
  (* Profiler: absent by default; every hook site below is one option
     check (no allocation) until [set_profiler] attaches one. *)
  mutable prof : profiler option;
  mutable selfcost : selfcost option;
}

exception Fiber_crash of string * exn

(* A lane timer fires without the closure an observer hooks into, so
   observers must come before the first lane entry: [arm] sends timers
   to the wheel while one is attached, and attaching one while a lane
   holds entries is refused rather than left to misattribute them. *)
let check_attach t what =
  if t.lane_pending > 0 then
    invalid_arg (what ^ ": attach observers before any lane timer is armed")

let () =
  Printexc.register_printer (function
    | Fiber_crash (name, exn) ->
      Some (Printf.sprintf "Fiber_crash(%s: %s)" name (Printexc.to_string exn))
    | _ -> None)

let create ?(seed = 1L) () =
  let t =
    {
      now = 0;
      seq = 0;
      events = Wheel.create ();
      root_rng = Rng.create seed;
      halted = false;
      running = false;
      limit = max_int;
      fast_forwards = 0;
      lanes = [||];
      lane_pending = 0;
      probe = Probe.create ();
      fabric = Fabric.create ();
      nvm = Nvm.create ();
      next_fiber = 0;
      cur_fiber = 0;
      cur_pid = -1;
      prov = false;
      next_span = 0;
      span_stacks = Hashtbl.create 64;
      reg = None;
      prof = None;
      selfcost = None;
    }
  in
  Probe.set_on_attach t.probe (fun () -> check_attach t "Probe.set_sink");
  t

let now t = t.now
let rng t = t.root_rng
let fabric t = t.fabric
let nvm t = t.nvm
let pending_events t = Wheel.length t.events + t.lane_pending

(* Telemetry ------------------------------------------------------------ *)

let set_metrics t reg = t.reg <- Some reg
let metrics t = t.reg

(* Profiler ------------------------------------------------------------- *)

let set_profiler t p =
  check_attach t "Engine.set_profiler";
  t.prof <- Some p

let clear_profiler t = t.prof <- None
let profiled t = match t.prof with Some _ -> true | None -> false

let set_selfcost t sc =
  check_attach t "Engine.set_selfcost";
  t.selfcost <- Some sc

(* Tracing ------------------------------------------------------------- *)

let probe t = t.probe
let traced t = Probe.enabled t.probe

let emit t ~kind ?(cat = "sim") ?pid ?tid ?(id = 0) ?(args = []) name =
  match Probe.sink t.probe with
  | None -> ()
  | Some f ->
    f
      {
        Probe.ts = t.now;
        kind;
        name;
        cat;
        pid = (match pid with Some p -> p | None -> t.cur_pid);
        tid = (match tid with Some x -> x | None -> t.cur_fiber);
        id;
        args;
      }

let trace_instant t ?cat ?pid ?tid ?args name =
  emit t ~kind:Probe.Instant ?cat ?pid ?tid ?args name

let trace_begin t ?cat ?pid ?tid ?args name =
  emit t ~kind:Probe.Span_begin ?cat ?pid ?tid ?args name

let trace_end t ?cat ?pid ?tid ?args name =
  emit t ~kind:Probe.Span_end ?cat ?pid ?tid ?args name

let trace_async_begin t ?cat ?pid ?args ~id name =
  emit t ~kind:Probe.Async_begin ?cat ?pid ~id ?args name

let trace_async_end t ?cat ?pid ?args ~id name =
  emit t ~kind:Probe.Async_end ?cat ?pid ~id ?args name

(* The [~args] list (and its [string_of_int]) must only be built once a
   sink is known to exist — counters sit on the commit hot path and an
   untraced run must not allocate here. *)
let trace_counter t ?cat ?pid name ~value =
  if Probe.enabled t.probe then
    emit t ~kind:Probe.Counter ?cat ?pid ~args:[ ("value", string_of_int value) ] name

let trace_meta_process t ~pid name =
  (match t.prof with Some p -> p.prof_host ~pid ~name | None -> ());
  emit t ~kind:Probe.Meta_process ~pid ~tid:0 name
let trace_meta_thread t ~pid ~tid name = emit t ~kind:Probe.Meta_thread ~pid ~tid name

let trace_span t ?cat ?pid ?args name f =
  if not (Probe.enabled t.probe) then f ()
  else begin
    trace_begin t ?cat ?pid ?args name;
    Fun.protect ~finally:(fun () -> trace_end t ?cat ?pid name) f
  end

(* Provenance -------------------------------------------------------------

   Spans are recorded as [Instant] events in cat "prov" ("span_begin" /
   "span_end" / "point" / "edge") so the existing Breakdown accumulator —
   which ignores instants — is unaffected, and the span tree is rebuilt
   offline by the [provenance] library from the trace ring. Span ids are
   allocated only while provenance is on; allocation order follows the
   (deterministic) event order, so equal seeds yield equal ids. *)

let set_provenance t on = t.prov <- on

(* An attached profiler also consumes span stacks (they are the third
   component of its attribution identity), so provenance machinery runs
   for it even with no probe sink installed — span ids are allocated in
   deterministic event order and touch no PRNG, and [emit] without a
   sink is a no-op, so this changes no trace bytes. *)
let provenance_on t =
  t.prov && (Probe.enabled t.probe || match t.prof with Some _ -> true | None -> false)

let span_stack t =
  match Hashtbl.find_opt t.span_stacks t.cur_fiber with
  | Some s -> s
  | None ->
    let s = ref [] in
    Hashtbl.replace t.span_stacks t.cur_fiber s;
    s

let current_span t =
  match Hashtbl.find_opt t.span_stacks t.cur_fiber with
  | Some { contents = s :: _ } -> s
  | _ -> 0

let span_open t ?pid ?parent ?(args = []) name =
  if not (provenance_on t) then 0
  else begin
    t.next_span <- t.next_span + 1;
    let id = t.next_span in
    (match t.prof with Some p -> p.prof_span ~id ~name | None -> ());
    let parent = match parent with Some p -> p | None -> current_span t in
    emit t ~kind:Probe.Instant ~cat:"prov" ?pid
      ~args:
        (("span", string_of_int id)
        :: ("parent", string_of_int parent)
        :: ("name", name) :: args)
      "span_begin";
    id
  end

let span_close t ?pid ?(args = []) id =
  if provenance_on t && id <> 0 then
    emit t ~kind:Probe.Instant ~cat:"prov" ?pid
      ~args:(("span", string_of_int id) :: args)
      "span_end"

let span_point t ?pid ?(args = []) ~span name =
  if provenance_on t && span <> 0 then
    emit t ~kind:Probe.Instant ~cat:"prov" ?pid
      ~args:(("span", string_of_int span) :: ("name", name) :: args)
      "point"

let span_edge t ?pid ~kind ~src ~dst () =
  if provenance_on t && src <> 0 && dst <> 0 then
    emit t ~kind:Probe.Instant ~cat:"prov" ?pid
      ~args:
        [ ("src", string_of_int src); ("dst", string_of_int dst); ("kind", kind) ]
      "edge"

let with_span t ?pid ?args name f =
  if not (provenance_on t) then f 0
  else begin
    (* Stack-scoped spans are tagged sync=1: they nest strictly within the
       opening fiber, so the analyzer can partition a parent's duration
       over them. Detached [span_open] spans (RDMA posts, requests) may
       overlap siblings and are excluded from that partition. *)
    let args = ("sync", "1") :: Option.value args ~default:[] in
    let id = span_open t ?pid ~args name in
    let stack = span_stack t in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        (match !stack with s :: rest when s = id -> stack := rest | _ -> ());
        (* The finally runs in the opening fiber's segment, so
           [t.cur_fiber] is the key [span_stack] registered the ref
           under; dropping the entry when the stack empties keeps the
           table bounded by fibers with an open span rather than by
           every fiber that ever opened one. *)
        if !stack = [] then Hashtbl.remove t.span_stacks t.cur_fiber;
        span_close t ?pid id)
      (fun () -> f id)
  end

let span_stacks_live t = Hashtbl.length t.span_stacks

(* Short-circuit before wrapping [f]: the closure below must not be
   built when provenance is off — this runs on the fiber hot path. *)
let span_scope t ?pid ?args name f =
  if not (provenance_on t) then f () else with_span t ?pid ?args name (fun _ -> f ())

(* Profiling wrap: capture the scheduling identity (host, fiber, open
   span stack — an immutable list snapshot) and claim the inter-event
   interval for it just before the real thunk runs. Attribution at
   schedule time is what makes exclusive times exact: virtual time
   elapses *between* events, and the interval ending at this event is
   precisely the wait this identity asked for (a sleep, an RDMA delay,
   a timer). *)
let[@inline never] prof_wrap t (p : profiler) thunk =
  let pid = t.cur_pid and tid = t.cur_fiber in
  let spans =
    match Hashtbl.find_opt t.span_stacks t.cur_fiber with Some s -> !s | None -> []
  in
  fun () ->
    p.prof_attr ~pid ~tid ~spans;
    thunk ()

let schedule t ~at thunk =
  let at = if at < t.now then t.now else at in
  t.seq <- t.seq + 1;
  let thunk = match t.prof with None -> thunk | Some p -> prof_wrap t p thunk in
  match t.selfcost with
  | Some sc when selfcost_tick sc ->
    let c0 = sc.sc_clock () in
    Wheel.push t.events ~key:at ~seq:t.seq thunk;
    selfcost_record sc c0
  | _ -> Wheel.push t.events ~key:at ~seq:t.seq thunk

let schedule_after t delay thunk = schedule t ~at:(t.now + delay) thunk
let halt t = t.halted <- true

(* Anything that watches the event stream — a probe sink, profiler or
   self-cost sampler — must see every event as a scheduled thunk, so an observed engine takes the slow paths of both
   [arm] and [sleep]. *)
let unobserved t =
  (match Probe.sink t.probe with None -> true | Some _ -> false)
  && (match t.prof with None -> true | Some _ -> false)
  && (match t.selfcost with None -> true | Some _ -> false)

(* Lanes ------------------------------------------------------------------- *)

type lane = { eng : t; q : fifo; owner : int }

let lane t ~delay fire =
  if delay < 0 then invalid_arg "Engine.lane: negative delay";
  let q =
    match Array.find_opt (fun q -> q.delay = delay) t.lanes with
    | Some q -> q
    | None ->
      let q = fifo_create delay in
      t.lanes <- Array.append t.lanes [| q |];
      q
  in
  if q.owners > owner_mask then invalid_arg "Engine.lane: too many owners";
  if q.owners = Array.length q.fire then begin
    let fire = Array.make (max 4 (2 * q.owners)) ignore in
    Array.blit q.fire 0 fire 0 q.owners;
    q.fire <- fire
  end;
  q.fire.(q.owners) <- fire;
  q.owners <- q.owners + 1;
  { eng = t; q; owner = q.owners - 1 }

(* The event is the one [schedule_after t q.delay] would queue — the same
   key and the next seq — so swapping paths reorders nothing. *)
let arm { eng = t; q; owner } x =
  if x < 0 || x lsr (62 - owner_bits) <> 0 then invalid_arg "Engine.arm: ticket out of range";
  let ticket = (x lsl owner_bits) lor owner in
  if unobserved t then begin
    t.seq <- t.seq + 1;
    fifo_push q ~key:(t.now + q.delay) ~seq:t.seq ticket;
    t.lane_pending <- t.lane_pending + 1
  end
  else schedule t ~at:(t.now + q.delay) (fun () -> fifo_fire q ticket)

let release { q; owner; _ } = q.fire.(owner) <- ignore

(* Index of the lane whose head precedes the wheel's minimum (key [at])
   and every other lane head in (key, seq) order; -1 when the wheel's
   head comes first. Only called with lane entries pending. *)
let lane_first t at =
  let best = ref (-1) and bk = ref at in
  let bs = ref (if at = max_int then max_int else Wheel.next_seq t.events) in
  for i = 0 to Array.length t.lanes - 1 do
    let q = t.lanes.(i) in
    if q.len > 0 then begin
      let k = q.keys.(q.first) and s = q.seqs.(q.first) in
      if k < !bk || (k = !bk && s < !bs) then begin
        best := i;
        bk := k;
        bs := s
      end
    end
  done;
  !best

let lanes_due t at =
  let due = ref false in
  for i = 0 to Array.length t.lanes - 1 do
    let q = t.lanes.(i) in
    if q.len > 0 && q.keys.(q.first) <= at then due := true
  done;
  !due

(* Fibers -------------------------------------------------------------- *)

type _ Effect.t +=
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Sleep : int -> unit Effect.t

let suspend register = Effect.perform (Suspend register)

let spawn t ?(name = "fiber") ?(pid = -1) f =
  t.next_fiber <- t.next_fiber + 1;
  let fid = t.next_fiber in
  (match t.prof with Some p -> p.prof_fiber ~tid:fid ~pid ~name | None -> ());
  if traced t then begin
    trace_meta_thread t ~pid ~tid:fid name;
    trace_instant t ~pid ~tid:fid ~args:[ ("name", name) ] "fiber_spawn"
  end;
  (* Fiber identity is tracked across suspensions so probe events emitted
     from inside a segment carry the right (pid, tid) by default. A segment
     runs to completion before any other event fires, so save/restore
     around each segment is exact; the restore is inlined (rather than a
     [Fun.protect ~finally] pair) so a resume costs one event closure and
     nothing else. *)
  let handler : (unit, unit) Effect.Deep.handler =
    {
      retc = (fun () -> ());
      exnc = (fun exn -> raise (Fiber_crash (name, exn)));
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Sleep d ->
            (* [sleep] keeps the same two-event shape as the generic path
               below — a timer event that then re-queues the continuation
               behind everything already due at the wake instant — so the
               event sequence (and therefore any same-seed trace) is
               byte-identical to the [suspend]-based implementation it
               replaces. What it saves is the register/resume closure
               pair and the one-shot guard per call. *)
            Some
              (fun (k : (b, _) Effect.Deep.continuation) ->
                if traced t then trace_instant t "fiber_park";
                schedule t ~at:(t.now + d) (fun () ->
                    schedule t ~at:t.now (fun () ->
                        t.cur_fiber <- fid;
                        t.cur_pid <- pid;
                        match Effect.Deep.continue k () with
                        | () ->
                          t.cur_fiber <- 0;
                          t.cur_pid <- -1
                        | exception e ->
                          t.cur_fiber <- 0;
                          t.cur_pid <- -1;
                          raise e)))
          | Suspend register ->
            Some
              (fun (k : (b, _) Effect.Deep.continuation) ->
                if traced t then trace_instant t "fiber_park";
                let resumed = ref false in
                let resume v =
                  if !resumed then invalid_arg "Engine: fiber resumed twice";
                  resumed := true;
                  schedule t ~at:t.now (fun () ->
                      t.cur_fiber <- fid;
                      t.cur_pid <- pid;
                      match Effect.Deep.continue k v with
                      | () ->
                        t.cur_fiber <- 0;
                        t.cur_pid <- -1
                      | exception e ->
                        t.cur_fiber <- 0;
                        t.cur_pid <- -1;
                        raise e)
                in
                register resume)
          | _ -> None);
    }
  in
  schedule t ~at:t.now (fun () ->
      t.cur_fiber <- fid;
      t.cur_pid <- pid;
      match Effect.Deep.match_with f () handler with
      | () ->
        t.cur_fiber <- 0;
        t.cur_pid <- -1
      | exception e ->
        t.cur_fiber <- 0;
        t.cur_pid <- -1;
        raise e)

(* Fast-forward. A sleep whose wake instant [at] is strictly earlier
   than every pending event would queue a timer and then a wake that are
   the next two events to run, whatever else is queued: nothing can be
   scheduled in between, because nothing else runs. Continuing the fiber
   in place at [at] is then the same execution minus two queue round
   trips, provided the run would have reached [at] (not halted, within
   [run ~until]) and the sleeper is a fiber of this engine (its handler
   is the one that would have parked it). An observer would see the two
   skipped events, so an observed engine always takes the slow path.
   Skipped events consume no sequence numbers, which only renumbers
   later ties without reordering them. *)
let sleep t delay =
  let d = if delay > 0 then delay else 0 in
  if
    t.cur_fiber <> 0 && (not t.halted)
    && d <= t.limit - t.now
    && unobserved t
    && (not (Wheel.due_by t.events (t.now + d)))
    && (t.lane_pending = 0 || not (lanes_due t (t.now + d)))
  then begin
    t.now <- t.now + d;
    t.fast_forwards <- t.fast_forwards + 1
  end
  else Effect.perform (Sleep delay)

let fast_forwards t = t.fast_forwards
let yield t = sleep t 0

let run ?until t =
  if t.running then invalid_arg "Engine.run: already running";
  t.running <- true;
  t.halted <- false;
  let limit = match until with None -> max_int | Some u -> u in
  t.limit <- limit;
  let rec loop () =
    if not t.halted then begin
      let at = Wheel.next_key t.events in
      let li = if t.lane_pending = 0 then -1 else lane_first t at in
      if li >= 0 then begin
        (* Lane entries exist only while nothing observes the engine
           (see [arm]), so a lane event needs no observer bookkeeping. *)
        let q = t.lanes.(li) in
        let key = q.keys.(q.first) in
        if key > limit then t.now <- limit
        else begin
          let ticket = fifo_pop q in
          t.lane_pending <- t.lane_pending - 1;
          t.now <- key;
          fifo_fire q ticket;
          loop ()
        end
      end
      else if at = max_int then () (* queue drained *)
      else if at > limit then t.now <- limit
      else begin
        let thunk =
          match t.selfcost with
          | Some sc when selfcost_tick sc ->
            let c0 = sc.sc_clock () in
            let th = Wheel.pop_exn t.events in
            selfcost_record sc c0;
            th
          | _ -> Wheel.pop_exn t.events
        in
        t.now <- at;
        (match t.prof with Some p -> p.prof_event ~now:at | None -> ());
        thunk ();
        loop ()
      end
    end
  in
  Fun.protect
    ~finally:(fun () -> t.running <- false)
    (fun () ->
      loop ();
      (* [run ~until] returning normally means the engine observed all of
         virtual time up to [limit]; advance the clock even when the queue
         drained early so back-to-back [run ~until] calls see a consistent
         monotone clock. A {!halt}ed run stops at the halting event's
         time. *)
      if (not t.halted) && limit <> max_int && t.now < limit then t.now <- limit)

(* Ivar ----------------------------------------------------------------- *)

module Ivar = struct
  type 'a state = Empty of ('a -> unit) list | Full of 'a
  type 'a ivar = { mutable state : 'a state }

  let create (_ : t) = { state = Empty [] }

  let try_fill iv v =
    match iv.state with
    | Full _ -> false
    | Empty waiters ->
      iv.state <- Full v;
      List.iter (fun w -> w v) (List.rev waiters);
      true

  let fill iv v = if not (try_fill iv v) then invalid_arg "Ivar.fill: already filled"

  let read iv =
    match iv.state with
    | Full v -> v
    | Empty _ ->
      suspend (fun resume ->
          match iv.state with
          | Full v -> resume v
          | Empty waiters -> iv.state <- Empty (resume :: waiters))

  let peek iv = match iv.state with Full v -> Some v | Empty _ -> None
  let is_filled iv = match iv.state with Full _ -> true | Empty _ -> false
end

(* Chan ----------------------------------------------------------------- *)

module Chan = struct
  (* A waiter is "done" once either a value was delivered to it or its
     timeout fired; both paths race and the flag makes them one-shot.

     Cells are mutable and recycled through a per-channel free list so a
     steady-state recv/send (or recv_timeout/send) cycle reuses one cell
     instead of allocating a record plus a [Queue] node each time. The
     waiter queue is an intrusive FIFO threaded through [next], with a
     per-channel sentinel [nil] standing for both "end of list" and
     "empty free list". Recycling discipline: a cell goes back on the
     free list only once nothing else can reach it — on dequeue for
     finished (timed-out) cells, and at the timer for cells whose value
     arrived before the timeout (the timer closure is the last reference
     then). A timed-out cell parked in the waiter queue is reclaimed by
     the next [wake_one] that walks past it. *)
  type 'a waiter = {
    mutable finished : bool;
    mutable has_timer : bool;
    mutable deliver : 'a -> unit;
    mutable next : 'a waiter;
  }

  type 'a chan = {
    engine : t;
    items : 'a Queue.t;
    nil : 'a waiter;
    mutable w_head : 'a waiter;
    mutable w_tail : 'a waiter;
    mutable free : 'a waiter;
  }

  let create engine =
    let rec nil = { finished = true; has_timer = false; deliver = ignore; next = nil } in
    { engine; items = Queue.create (); nil; w_head = nil; w_tail = nil; free = nil }

  let enqueue_waiter c w =
    w.next <- c.nil;
    if c.w_head == c.nil then c.w_head <- w else c.w_tail.next <- w;
    c.w_tail <- w

  (* Returns [c.nil] when no waiter is queued. *)
  let dequeue_waiter c =
    let w = c.w_head in
    if w != c.nil then begin
      c.w_head <- w.next;
      if c.w_head == c.nil then c.w_tail <- c.nil;
      w.next <- c.nil
    end;
    w

  let recycle c w =
    w.deliver <- ignore;
    (* drop the continuation *)
    w.has_timer <- false;
    w.next <- c.free;
    c.free <- w

  let alloc_waiter c ~has_timer deliver =
    let w = c.free in
    if w == c.nil then { finished = false; has_timer; deliver; next = c.nil }
    else begin
      c.free <- w.next;
      w.next <- c.nil;
      w.finished <- false;
      w.has_timer <- has_timer;
      w.deliver <- deliver;
      w
    end

  let rec wake_one c v =
    let w = dequeue_waiter c in
    if w == c.nil then Queue.push v c.items
    else if w.finished then begin
      (* Timed out earlier: its timer already fired, and it just left the
         waiter queue, so nothing references it any more. *)
      recycle c w;
      wake_one c v
    end
    else begin
      w.finished <- true;
      let deliver = w.deliver in
      (* A cell with a pending timer is still referenced by the timer
         closure; the timer recycles it when it fires. *)
      if not w.has_timer then recycle c w;
      deliver v
    end

  let send c v = wake_one c v

  let recv c =
    match Queue.take_opt c.items with
    | Some v -> v
    | None -> suspend (fun resume -> enqueue_waiter c (alloc_waiter c ~has_timer:false resume))

  let recv_timeout c timeout =
    match Queue.take_opt c.items with
    | Some v -> Some v
    | None ->
      suspend (fun resume ->
          let w = alloc_waiter c ~has_timer:true (fun v -> resume (Some v)) in
          enqueue_waiter c w;
          schedule_after c.engine timeout (fun () ->
              if w.finished then recycle c w (* value won the race; timer owns the cell *)
              else begin
                w.finished <- true;
                resume None
              end))

  let poll c = Queue.take_opt c.items
  let length c = Queue.length c.items
end

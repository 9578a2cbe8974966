(* Buffer layout on each replica: entry area at 0, tail pointer at 4096,
   commit pointer at 4104. *)
let tail_off = 4096
let commit_off = 4104

let create (c : Common.t) =
  let seq = ref 0 in
  let followers = List.init (Common.n c - 1) (fun i -> i + 1) in
  let needed = Common.majority c - 1 in
  let round data off =
    (* Leader-side protocol bookkeeping per round (log management, offset
       computation) — DARE involves the leader CPU between rounds. *)
    Sim.Host.cpu c.Common.hosts.(0) 250;
    List.iter (fun j -> Common.write_to c ~src:0 ~dst:j ~data ~off) followers;
    Common.await_successes c ~node:0 ~count:needed;
    (* Drain the remaining completions of this round before the next so a
       late straggler is not miscounted later; DARE likewise tracks
       per-entry completion state. *)
    Common.await_successes c ~node:0 ~count:(List.length followers - needed)
  in
  let replicate payload =
    incr seq;
    let t0 = Sim.Engine.now c.Common.engine in
    let entry = Bytes.create (8 + Bytes.length payload) in
    Bytes.set_int64_le entry 0 (Int64.of_int !seq);
    Bytes.blit payload 0 entry 8 (Bytes.length payload);
    let ptr = Bytes.create 8 in
    Bytes.set_int64_le ptr 0 (Int64.of_int !seq);
    (* Round 1: the log entry. *)
    round entry 0;
    (* Round 2: advance each replica's tail pointer. *)
    round ptr tail_off;
    (* Round 3: advance the commit pointer so followers may apply. *)
    round ptr commit_off;
    Sim.Engine.now c.Common.engine - t0
  in
  Common.with_telemetry c { Common.name = "DARE"; replicate }

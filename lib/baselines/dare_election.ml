type role = Leader | Candidate | Follower

(* Control-region layout inside each node's buffer (above the replication
   offsets used by {!Dare}): *)
let hb_term_off = 8192 (* leader's term *)
let hb_counter_off = 8200 (* liveness counter, bumped with every heartbeat *)
let req_term_off = 8208 (* candidate's vote request: term *)
let req_cand_off = 8216 (* ... and candidate id *)
let votes_off voter = 8224 + (8 * voter) (* grants written into the candidate *)

type node = {
  id : int;
  mutable role : role;
  mutable term : int;
  mutable voted_term : int;  (* highest term this node granted a vote in *)
  mutable last_hb_counter : int64;
  mutable last_hb_at : int;  (* local time of last observed progress *)
  mutable timeout : int;  (* current randomized election timeout (ns) *)
}

type t = {
  c : Common.t;
  nodes : node array;
  election_timeout : int * int;  (* randomized range, ns *)
  check_interval : int;
  mutable wr : int;
}

let role t i = t.nodes.(i).role
let term t i = t.nodes.(i).term

let current_leader t =
  let leaders =
    Array.to_list t.nodes
    |> List.filter (fun n ->
           n.role = Leader
           && Sim.Host.liveness t.c.Common.hosts.(n.id) = Sim.Host.Running)
  in
  match leaders with [ n ] -> Some n.id | [] | _ :: _ :: _ -> None

let rand_timeout t rng =
  let lo, hi = t.election_timeout in
  lo + Sim.Rng.int rng (hi - lo)

let mr t i = t.c.Common.mrs.(i)
let get64 t i off = Rdma.Mr.get_i64 (mr t i) ~off
let now t = Sim.Engine.now t.c.Common.engine

(* Post one 8-byte write from [src] node to [dst] node and consume its
   completion (the node fiber is its CQ's only consumer during election). *)
let write64 t ~src ~dst ~off v =
  let buf = Bytes.create 8 in
  Bytes.set_int64_le buf 0 v;
  t.wr <- t.wr + 1;
  Rdma.Qp.post_write t.c.Common.qps.(src).(dst) ~wr_id:t.wr ~src:buf ~src_off:0 ~len:8
    ~mr:(mr t dst) ~dst_off:off;
  ignore (Rdma.Cq.await t.c.Common.cqs.(src))

let others t i = List.filter (fun j -> j <> i) (List.init (Common.n t.c) Fun.id)

let step_down n ~term ~at =
  n.role <- Follower;
  n.term <- term;
  n.last_hb_at <- at

(* One protocol step of node [i]; runs every [check_interval]. *)
let step t (n : node) rng hb_seq =
  let i = n.id in
  (* Observe heartbeats. *)
  let hb_term = Int64.to_int (get64 t i hb_term_off) in
  let hb_counter = get64 t i hb_counter_off in
  if hb_term >= n.term && Int64.compare hb_counter n.last_hb_counter > 0 then begin
    n.last_hb_counter <- hb_counter;
    n.last_hb_at <- now t;
    if hb_term > n.term || n.role = Candidate then step_down n ~term:hb_term ~at:(now t)
  end
  else if hb_term > n.term then step_down n ~term:hb_term ~at:(now t);
  (* Vote if a newer candidate asks (one vote per term). *)
  let req_term = Int64.to_int (get64 t i req_term_off) in
  if req_term > n.term || (req_term = n.term && req_term > n.voted_term) then begin
    let candidate = Int64.to_int (get64 t i req_cand_off) in
    if req_term > n.voted_term && candidate <> i then begin
      n.voted_term <- req_term;
      if req_term > n.term then step_down n ~term:req_term ~at:(now t);
      write64 t ~src:i ~dst:candidate ~off:(votes_off i) (Int64.of_int req_term);
      n.last_hb_at <- now t
    end
  end;
  match n.role with
  | Leader ->
    (* Push heartbeats. *)
    incr hb_seq;
    List.iter
      (fun j ->
        write64 t ~src:i ~dst:j ~off:hb_term_off (Int64.of_int n.term);
        write64 t ~src:i ~dst:j ~off:hb_counter_off (Int64.of_int !hb_seq))
      (others t i)
  | Follower | Candidate ->
    if now t - n.last_hb_at > n.timeout then begin
      (* Stand for election. *)
      n.role <- Candidate;
      n.term <- n.term + 1;
      n.voted_term <- n.term;
      n.timeout <- rand_timeout t rng;
      n.last_hb_at <- now t;
      List.iter
        (fun j ->
          write64 t ~src:i ~dst:j ~off:req_term_off (Int64.of_int n.term);
          write64 t ~src:i ~dst:j ~off:req_cand_off (Int64.of_int i))
        (others t i);
      (* Collect votes until won, demoted, or timed out. *)
      let deadline = now t + n.timeout in
      let won = ref false in
      while n.role = Candidate && (not !won) && now t < deadline do
        Sim.Host.idle t.c.Common.hosts.(i) t.check_interval;
        let votes =
          1
          + List.length
              (List.filter
                 (fun v -> Int64.to_int (get64 t i (votes_off v)) = n.term)
                 (others t i))
        in
        if votes >= Common.majority t.c then won := true
        else begin
          (* A higher-term heartbeat or request demotes us. *)
          let hb_term = Int64.to_int (get64 t i hb_term_off) in
          if hb_term > n.term then step_down n ~term:hb_term ~at:(now t)
        end
      done;
      if !won && n.role = Candidate then begin
        n.role <- Leader;
        (* Announce immediately. *)
        incr hb_seq;
        List.iter
          (fun j ->
            write64 t ~src:i ~dst:j ~off:hb_term_off (Int64.of_int n.term);
            write64 t ~src:i ~dst:j ~off:hb_counter_off (Int64.of_int !hb_seq))
          (others t i)
      end
    end

(* A leader's heartbeat period, ns (DARE's published regime). *)
let heartbeat = 5_000_000

let create ?(election_timeout_ms = 30.0) c =
  let lo = int_of_float (election_timeout_ms *. 0.75 *. 1.0e6) in
  let hi = int_of_float (election_timeout_ms *. 1.25 *. 1.0e6) in
  let t =
    {
      c;
      nodes =
        Array.init (Common.n c) (fun id ->
            {
              id;
              role = (if id = 0 then Leader else Follower);
              term = 1;
              voted_term = 1;
              last_hb_counter = 0L;
              last_hb_at = 0;
              timeout = 0;
            });
      election_timeout = (lo, hi);
      check_interval = 1_000_000;
      wr = 100_000_000;
    }
  in
  Array.iter
    (fun (n : node) ->
      Sim.Host.spawn t.c.Common.hosts.(n.id)
        ~name:(Printf.sprintf "dare-election-%d" n.id)
        (fun () ->
          let rng = Sim.Host.rng t.c.Common.hosts.(n.id) in
          n.timeout <- rand_timeout t rng;
          let hb_seq = ref 0 in
          let rec loop () =
            step t n rng hb_seq;
            (* Leaders pace by the heartbeat period; others poll faster. *)
            Sim.Host.idle t.c.Common.hosts.(n.id)
              (if n.role = Leader then heartbeat else t.check_interval);
            loop ()
          in
          loop ()))
    t.nodes;
  t

let measure_failover t ~rounds =
  let e = t.c.Common.engine in
  let samples = Sim.Stats.Samples.create () in
  let wait_for pred =
    while not (pred ()) do
      Sim.Engine.sleep e 200_000
    done
  in
  for _ = 1 to rounds do
    wait_for (fun () -> current_leader t <> None);
    Sim.Engine.sleep e 3_000_000;
    let leader = Option.get (current_leader t) in
    let t0 = now t in
    Sim.Host.pause t.c.Common.hosts.(leader);
    wait_for (fun () ->
        match current_leader t with Some l -> l <> leader | None -> false);
    Sim.Stats.Samples.add samples (now t - t0);
    Sim.Host.resume t.c.Common.hosts.(leader);
    (* The resumed ex-leader sees the higher term and steps down. *)
    wait_for (fun () -> current_leader t <> None)
  done;
  samples

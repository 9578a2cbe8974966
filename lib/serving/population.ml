(* Open-loop client population: hundreds of thousands to millions of
   modeled clients share one generator — arrivals are drawn from the
   aggregate process, and a small busy-until table models per-client
   seriality (a client thinking after its last request cannot be the
   source of the next arrival). No per-client fiber ever exists, so the
   population size is a model parameter, not a simulator cost. *)

type process = Poisson | Diurnal of { period_ns : int; amplitude : float }

type t = {
  clients : int;
  think_ns : int;
  keys : int;
  theta : float;
  process : process;
  rng : Sim.Rng.t;
  (* client id -> virtual time until which that client is thinking.
     Entries are dropped lazily as expired picks land on them. *)
  busy : (int, int) Hashtbl.t;
  mutable arrivals : int;
  mutable suppressed : int;
}

type arrival = { gap_ns : int; client : int; key : string }

let create ?(process = Poisson) ?(theta = 0.99) ?(keys = 100_000) ~clients ~think_ns rng
    =
  if clients < 1 then invalid_arg "Population.create: clients must be >= 1";
  if think_ns < 1 then invalid_arg "Population.create: think_ns must be >= 1";
  if keys < 1 then invalid_arg "Population.create: keys must be >= 1";
  {
    clients;
    think_ns;
    keys;
    theta;
    process;
    rng;
    busy = Hashtbl.create 4096;
    arrivals = 0;
    suppressed = 0;
  }

(* Aggregate offered rate in arrivals per ns: [clients / think_ns] for a
   Poisson population, modulated sinusoidally for a diurnal one. *)
let rate t ~now =
  let base = float_of_int t.clients /. float_of_int t.think_ns in
  match t.process with
  | Poisson -> base
  | Diurnal { period_ns; amplitude } ->
    Workload.Generators.diurnal_rate ~base ~amplitude ~period_ns ~now

let next t ~now =
  let gap_ns = Workload.Generators.poisson_gap t.rng ~rate:(rate t ~now) in
  let at = now + gap_ns in
  (* Bounded redraw: a pick that lands on a thinking client is counted
     as suppressed and redrawn a few times; a saturated population
     (everyone thinking) accepts the last pick rather than spinning. *)
  let rec pick tries =
    let c = Sim.Rng.int t.rng t.clients in
    match Hashtbl.find_opt t.busy c with
    | Some until when until > at ->
      if tries = 0 then c
      else begin
        t.suppressed <- t.suppressed + 1;
        pick (tries - 1)
      end
    | Some _ ->
      Hashtbl.remove t.busy c;
      c
    | None -> c
  in
  let client = pick 4 in
  Hashtbl.replace t.busy client
    (at + Workload.Generators.think_gap t.rng ~mean_ns:t.think_ns);
  t.arrivals <- t.arrivals + 1;
  let key =
    Printf.sprintf "key-%08d" (Workload.Generators.zipf t.rng ~n:t.keys ~theta:t.theta)
  in
  { gap_ns; client; key }

let arrivals t = t.arrivals
let suppressed t = t.suppressed

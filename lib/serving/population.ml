(* Open-loop client population: hundreds of thousands to millions of
   modeled clients share one generator — arrivals are drawn from the
   aggregate process, and a small busy-until table models per-client
   seriality (a client thinking after its last request cannot be the
   source of the next arrival). No per-client fiber ever exists, so the
   population size is a model parameter, not a simulator cost.

   [next] runs once per arrival, so its per-arrival work is kept flat:
   the busy table is an int-keyed hash table (a table sized by
   [clients] would cost memory per modeled client), the Zipf sampler
   resolves its CDF and a guide table once at creation, and keys are
   formatted without Printf. Each draws exactly what the plain versions
   drew, so arrivals are unchanged. *)

module Busy = Hashtbl.Make (Int)

type process = Poisson | Diurnal of { period_ns : int; amplitude : float }

type t = {
  clients : int;
  think_ns : int;
  process : process;
  rng : Sim.Rng.t;
  zipf : Sim.Rng.t -> int;
  (* client id -> virtual time until which that client is thinking.
     Entries are dropped lazily as expired picks land on them. *)
  busy : int Busy.t;
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
    process;
    rng;
    zipf = Workload.Generators.zipf_sampler ~n:keys ~theta;
    busy = Busy.create 4096;
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
    match Busy.find_opt t.busy c with
    | Some until when until > at ->
      if tries = 0 then c
      else begin
        t.suppressed <- t.suppressed + 1;
        pick (tries - 1)
      end
    | Some _ ->
      Busy.remove t.busy c;
      c
    | None -> c
  in
  let client = pick 4 in
  Busy.replace t.busy client
    (at + Workload.Generators.think_gap t.rng ~mean_ns:t.think_ns);
  t.arrivals <- t.arrivals + 1;
  let key = Workload.Generators.key_name (t.zipf t.rng) in
  { gap_ns; client; key }

let arrivals t = t.arrivals
let suppressed t = t.suppressed

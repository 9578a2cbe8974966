(* Determinism rows: each row runs a workload twice, in process, and
   requires the two runs' exports to be byte-identical. The first rows
   are the virtual-time profiler's (DESIGN.md §18): folded and
   speedscope exports of `mu_demo profile --mode failover` and
   `--mode chaos`, and the self-cost sampler attached beside the
   profiler leaving the folded export as the bare run's. *)

module E = Workload.Experiments
module Vt = Profile.Vt

(* One run with a profiler (and, given [selfcost], the wall-clock
   self-cost sampler) on every engine it creates, provenance on, as
   `mu_demo profile` sets them up. [f on_engine] is the run. *)
let profiled ?(selfcost = false) f =
  let vts = ref [] in
  let sampler =
    if selfcost then Some (Monitor.Overhead.Attached.create ~clock:Sys.time ()) else None
  in
  let on_engine e =
    vts := Vt.attach e :: !vts;
    Option.iter (fun a -> Monitor.Overhead.Attached.attach a e) sampler
  in
  (match sampler with
  | Some a -> Monitor.Overhead.Attached.measure_run a (fun () -> f on_engine)
  | None -> f on_engine);
  match !vts with
  | [] -> Alcotest.fail "profiler never attached"
  | vts ->
    List.iter Vt.finish vts;
    Vt.folded vts

let failover ?selfcost ~seed ~rounds () =
  profiled ?selfcost (fun on_engine ->
      let setup =
        {
          E.seed;
          cal = Util.default_cal;
          trace = None;
          metrics = None;
          faults = None;
          provenance = true;
          on_engine = Some on_engine;
        }
      in
      ignore (E.failover setup ~rounds : E.failover_stats))

let chaos ~n ~seed name () =
  profiled (fun on_engine ->
      ignore
        (Workload.Chaos.run
           ~on_engine:(fun e ->
             Sim.Engine.set_provenance e true;
             on_engine e)
           (Util.chaos_named ~n ~seed name)
          : Workload.Chaos.outcome))

let folded f () = [ ("folded", Vt.to_folded_string (f ())) ]

let both f () =
  let p = f () in
  [ ("folded", Vt.to_folded_string p); ("speedscope", Vt.to_speedscope_string p) ]

(* A row: two runs whose named exports must be equal. *)
type row = {
  name : string;
  first : unit -> (string * string) list;
  second : unit -> (string * string) list;
}

let twice name run = { name; first = run; second = run }

let rows =
  [
    twice "failover profile exports" (both (failover ~seed:42L ~rounds:50));
    twice "kill-restart profile exports" (both (chaos ~n:3 ~seed:7L "kill-restart"));
    {
      name = "self-cost keeps failover folded";
      first = folded (failover ~seed:42L ~rounds:50);
      second = folded (failover ~selfcost:true ~seed:42L ~rounds:50);
    };
  ]

let check_row r () =
  let a = r.first () and b = r.second () in
  List.iter2
    (fun (what, x) (_, y) ->
      Alcotest.(check bool) (what ^ " export is non-trivial") true (String.length x > 0);
      Alcotest.(check bool) (what ^ " exports are byte-identical") true (String.equal x y))
    a b

let suite = List.map (fun r -> Alcotest.test_case r.name `Quick (check_row r)) rows

type verdict = Pass | Not_conformant | Invariant_violation | Crash | Stall

let strings =
  [
    (Pass, "pass");
    (Not_conformant, "not-conformant");
    (Invariant_violation, "invariant-violation");
    (Crash, "crash");
    (Stall, "stall");
  ]

let verdict_to_string v = List.assoc v strings
let verdict_of_string s = List.find_map (fun (v, s') -> if s = s' then Some v else None) strings

let judge (o : Workload.Chaos.outcome) =
  if o.witness <> None then Not_conformant
  else if o.violations <> [] then Invariant_violation
  else if o.crash <> None then Crash
  else if not o.completed then Stall
  else Pass

(* Command line of the benchmark:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints one line per metric and check, then, as the last line, one
   JSON object with the keys correct, attempted, failed and metrics.
   Exits 1 when a correctness check fails, 2 on a usage error. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload kv-closed|serve-open|failover-open --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with Some s -> seed := s | None -> usage ());
      parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with Some s -> seconds := s | None -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w =
    match Perfbench.find_workload Perfbench.full !workload with Some w -> w | None -> usage ()
  in
  let o =
    if !trace then Perfbench.run_traced w ~seed:!seed ~seconds:!seconds
    else Perfbench.run_untraced Perfbench.full w ~seed:!seed ~seconds:!seconds
  in
  Printf.printf "workload %s seed %d trace %b\n" w.Perfbench.name !seed !trace;
  List.iter
    (fun m ->
      Printf.printf "  %-36s %14s %s%s\n" m.Perfbench.m_name
        (Perfbench.render_value m.Perfbench.value) m.Perfbench.m_unit
        (match m.Perfbench.samples with Some n -> Printf.sprintf "  (n=%d)" n | None -> ""))
    o.Perfbench.metrics;
  List.iter (fun n -> Printf.printf "  note: %s\n" n) o.Perfbench.notes;
  List.iter
    (fun (name, ok) -> Printf.printf "  check %s: %s\n" (if ok then "PASS" else "FAIL") name)
    o.Perfbench.checks;
  print_endline (Perfbench.json_of_outcome o);
  if not o.Perfbench.correct then exit 1

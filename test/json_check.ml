(* json_check FILE... — exit 1, naming each culprit, unless every file
   parses with the project's JSON codec. The CLI view rules in test/dune
   run it over what a run wrote. *)

let () =
  let bad =
    List.filter_map
      (fun file ->
        let ic = open_in_bin file in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        match Json.of_string s with Ok _ -> None | Error msg -> Some (file ^ ": " ^ msg))
      (List.tl (Array.to_list Sys.argv))
  in
  List.iter prerr_endline bad;
  exit (if bad = [] then 0 else 1)

(* Top-N textual report over folded stacks.

   Self = exclusive ns attributed to a frame when it is the leaf;
   total = ns of every stack the frame appears on (counted once per
   stack, so recursion does not double-count). Ties break by frame name
   so the rendering is deterministic. *)

type entry = { frame : string; self_ns : int; total_ns : int }

(* Self sums the weights of stacks whose leaf is the frame; total sums
   the weights of stacks containing the frame, once per stack. *)
let of_folded folded =
  let tbl : (string, int ref * int ref) Hashtbl.t = Hashtbl.create 64 in
  let cell f =
    match Hashtbl.find_opt tbl f with
    | Some c -> c
    | None ->
      let c = (ref 0, ref 0) in
      Hashtbl.add tbl f c;
      c
  in
  List.iter
    (fun (frames, w) ->
      match List.rev frames with
      | [] -> ()
      | leaf :: _ ->
        let self, _ = cell leaf in
        self := !self + w;
        let seen = Hashtbl.create 8 in
        List.iter
          (fun f ->
            if not (Hashtbl.mem seen f) then begin
              Hashtbl.add seen f ();
              let _, total = cell f in
              total := !total + w
            end)
          frames)
    folded;
  Hashtbl.fold
    (fun frame (self, total) acc -> { frame; self_ns = !self; total_ns = !total } :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.frame b.frame)

let by_self entries =
  List.sort
    (fun a b ->
      match compare b.self_ns a.self_ns with 0 -> compare a.frame b.frame | c -> c)
    entries

let by_total entries =
  List.sort
    (fun a b ->
      match compare b.total_ns a.total_ns with 0 -> compare a.frame b.frame | c -> c)
    entries

let take n l =
  let rec go n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: tl -> x :: go (n - 1) tl
  in
  go n l

let pct part whole = if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

let pp_table ppf ~total entries =
  List.iter
    (fun e ->
      Fmt.pf ppf "%12d ns %6.2f%%  %12d ns %6.2f%%  %s@."
        e.self_ns (pct e.self_ns total) e.total_ns (pct e.total_ns total) e.frame)
    entries

let pp ?(top = 15) ppf folded =
  let total = Vt.total_ns folded in
  let entries = of_folded folded in
  Fmt.pf ppf "virtual-time profile: %d ns over %d stacks, %d frames@." total
    (List.length folded) (List.length entries);
  Fmt.pf ppf "%14s %7s  %14s %7s  %s@." "self" "" "total" "" "frame";
  Fmt.pf ppf "-- top %d by self --@." top;
  pp_table ppf ~total (take top (by_self entries));
  Fmt.pf ppf "-- top %d by total --@." top;
  pp_table ppf ~total (take top (by_total entries))

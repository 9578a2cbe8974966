module type MODEL = sig
  type state
  type op

  val init : state
  val key : op -> string
  val invoked : op -> int
  val responded : op -> int
  val fits : state -> op -> bool
  val next : state -> op -> state
  val removable : op list -> op -> bool
  val order : op -> op -> int
end

module Make (M : MODEL) = struct
  type witness = { wkey : string; wops : M.op list; wpending : M.op list }

  (* Backtracking search for a linearization of one key's history. A
     candidate for the next linearization point is any remaining op
     invoked before every remaining op's response (i.e., not
     real-time-after any remaining op) whose result fits the state. The
     intervals are cached in int arrays: the inner loops then never go
     through the model. *)
  let check_key ops =
    let arr = Array.of_list ops in
    let n = Array.length arr in
    let inv = Array.map M.invoked arr and res = Array.map M.responded arr in
    let used = Array.make n false in
    let rec go remaining state =
      if remaining = 0 then true
      else begin
        let min_res = ref max_int in
        for i = 0 to n - 1 do
          if (not used.(i)) && res.(i) < !min_res then min_res := res.(i)
        done;
        let min_res = !min_res in
        let rec try_candidates i =
          if i >= n then false
          else if used.(i) || inv.(i) > min_res || not (M.fits state arr.(i)) then
            try_candidates (i + 1)
          else begin
            used.(i) <- true;
            if go (remaining - 1) (M.next state arr.(i)) then true
            else begin
              used.(i) <- false;
              try_candidates (i + 1)
            end
          end
        in
        try_candidates 0
      end
    in
    go n M.init

  (* Deterministic key order: the same history must always yield the same
     verdict path (and, below, the same witness). *)
  let by_key ops =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun o ->
        let k = M.key o in
        Hashtbl.replace tbl k (o :: Option.value (Hashtbl.find_opt tbl k) ~default:[]))
      ops;
    Hashtbl.fold (fun k key_ops acc -> (k, List.rev key_ops) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let check ops = List.for_all (fun (_, key_ops) -> check_key key_ops) (by_key ops)

  (* Greedy scan last-to-first, repeated to a fixpoint: suffix ops fall
     first, shortening the prefix. Each removal the model allows is
     re-checked to still fail. *)
  let minimize_key ops =
    let current = ref (List.stable_sort M.order ops) in
    let progress = ref true in
    while !progress do
      progress := false;
      List.iter
        (fun o ->
          let kept = List.filter (fun x -> x != o) !current in
          if
            List.memq o !current && M.removable !current o && kept <> []
            && not (check_key kept)
          then begin
            current := kept;
            progress := true
          end)
        (List.rev !current)
    done;
    !current

  let witness ops =
    match List.find_opt (fun (_, key_ops) -> not (check_key key_ops)) (by_key ops) with
    | None -> None
    | Some (wkey, key_ops) ->
      let wops = minimize_key key_ops in
      Some { wkey; wops; wpending = List.filter (fun o -> M.responded o = max_int) wops }
end

(* --- the abstract register ------------------------------------------------ *)

type op_kind = Read of string option | Write of string | Erase

type op = { proc : int; invoked : int; responded : int; key : string; kind : op_kind }

module Register = Make (struct
  type state = string option
  type nonrec op = op

  let init = None
  let key o = o.key
  let invoked o = o.invoked
  let responded o = o.responded
  let fits state o = match o.kind with Read observed -> observed = state | Write _ | Erase -> true
  let next state o = match o.kind with Write v -> Some v | Erase -> None | Read _ -> state

  (* Reads only constrain, so dropping one never manufactures a failure;
     a write is only droppable when no retained read observed its value
     (take a valid linearization of the full history and delete the
     write — every retained read sat outside the deleted value's reign,
     so the shorter sequence is still valid); an erase is only droppable
     when no retained read observed [None] (the erase's reign is the
     [None] segment it opens). *)
  let removable retained o =
    let observed pred =
      List.exists (fun r -> r != o && match r.kind with Read v -> pred v | _ -> false) retained
    in
    match o.kind with
    | Read _ -> true
    | Write v -> not (observed (( = ) (Some v)))
    | Erase -> not (observed Option.is_none)

  let order a b = compare (a.invoked, a.responded, a.proc) (b.invoked, b.responded, b.proc)
end)

type witness = Register.witness = { wkey : string; wops : op list; wpending : op list }

let check = Register.check
let witness = Register.witness

let pp_op ppf o =
  let kind =
    match o.kind with
    | Write v -> Printf.sprintf "write %S" v
    | Erase -> "erase"
    | Read (Some v) -> Printf.sprintf "read -> %S" v
    | Read None -> "read -> (none)"
  in
  if o.responded = max_int then
    Fmt.pf ppf "proc %d  [%d, open)      %-18s PENDING" o.proc o.invoked kind
  else Fmt.pf ppf "proc %d  [%d, %d]  %s" o.proc o.invoked o.responded kind

let pp_witness ppf w =
  Fmt.pf ppf "key %S: %d-op failing sub-history (%d pending)" w.wkey
    (List.length w.wops) (List.length w.wpending);
  (* Forced newlines, not box breaks: the witness is embedded in outcome
     lines printed outside any formatting box. *)
  List.iter (fun o -> Fmt.pf ppf "@\n    %a" pp_op o) w.wops

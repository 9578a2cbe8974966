type violation = { replica : int; index : int option; message : string }

let pp_violation ppf v =
  match v.index with
  | Some i -> Fmt.pf ppf "replica %d, slot %d: %s" v.replica i v.message
  | None -> Fmt.pf ppf "replica %d: %s" v.replica v.message

let live (r : Replica.t) = not r.Replica.removed

let slot_value (r : Replica.t) idx =
  Option.map (fun (s : Log.slot) -> s.Log.value) (Log.read_slot r.Replica.log idx)

let agreement replicas =
  let out = ref [] in
  Array.iter
    (fun (a : Replica.t) ->
      Array.iter
        (fun (b : Replica.t) ->
          if a.Replica.id < b.Replica.id && live a && live b then begin
            let bound = min (Log.fuo a.Replica.log) (Log.fuo b.Replica.log) in
            for i = 0 to bound - 1 do
              match slot_value a i, slot_value b i with
              | Some va, Some vb when not (Bytes.equal va vb) ->
                out :=
                  {
                    replica = a.Replica.id;
                    index = Some i;
                    message =
                      Printf.sprintf "disagrees with replica %d on a decided slot"
                        b.Replica.id;
                  }
                  :: !out
              | _ -> ()
            done
          end)
        replicas)
    replicas;
  !out

let no_holes replicas =
  let out = ref [] in
  Array.iter
    (fun (r : Replica.t) ->
      if live r then
        for i = r.Replica.applied to Log.fuo r.Replica.log - 1 do
          if slot_value r i = None then
            out :=
              { replica = r.Replica.id; index = Some i; message = "hole below the FUO" }
              :: !out
        done)
    replicas;
  !out

let decided_at_majority replicas =
  let out = ref [] in
  let n =
    Array.to_list replicas |> List.filter live |> List.length
  in
  let majority = (n / 2) + 1 in
  Array.iter
    (fun (r : Replica.t) ->
      if live r then
        for i = r.Replica.applied to Log.fuo r.Replica.log - 1 do
          (* Count copies among replicas that still retain index i; those
             whose log head moved past it have applied (hence once held)
             the entry, so they count as holders too. *)
          let copies =
            Array.to_list replicas
            |> List.filter (fun (p : Replica.t) ->
                   live p && (p.Replica.applied > i || slot_value p i <> None))
            |> List.length
          in
          if copies < majority then
            out :=
              {
                replica = r.Replica.id;
                index = Some i;
                message = Printf.sprintf "decided entry present at only %d copies" copies;
              }
              :: !out
        done)
    replicas;
  !out

let single_writer replicas =
  let out = ref [] in
  Array.iter
    (fun (r : Replica.t) ->
      if live r then begin
        let writers =
          List.filter
            (fun (p : Replica.peer) ->
              (Rdma.Qp.access p.Replica.repl_qp).Rdma.Verbs.remote_write)
            r.Replica.peers
        in
        if List.length writers > 1 then
          out :=
            {
              replica = r.Replica.id;
              index = None;
              message =
                Printf.sprintf "grants write access to %d remote replicas"
                  (List.length writers);
            }
            :: !out
      end)
    replicas;
  !out

let applied_within_fuo replicas =
  let out = ref [] in
  Array.iter
    (fun (r : Replica.t) ->
      if live r && r.Replica.applied > Log.fuo r.Replica.log then
        out :=
          {
            replica = r.Replica.id;
            index = None;
            message =
              Printf.sprintf "applied %d past its FUO %d" r.Replica.applied
                (Log.fuo r.Replica.log);
          }
          :: !out)
    replicas;
  !out

let check_all replicas =
  List.concat
    [
      agreement replicas;
      no_holes replicas;
      decided_at_majority replicas;
      single_writer replicas;
      applied_within_fuo replicas;
    ]

type t = {
  table : (string, string) Hashtbl.t;
  (* (client, req_id) dedup: last id applied and its reply, per client. *)
  last_applied : (int, int * Bytes.t) Hashtbl.t;
}

let create () = { table = Hashtbl.create 1024; last_applied = Hashtbl.create 64 }

type command =
  | Get of { key : string }
  | Put of { key : string; value : string }
  | Delete of { key : string }

type reply = Value of string | Not_found | Stored | Deleted

let pp_command ppf = function
  | Get { key } -> Fmt.pf ppf "get(%s)" key
  | Put { key; value } -> Fmt.pf ppf "put(%s=%s)" key value
  | Delete { key } -> Fmt.pf ppf "delete(%s)" key

let pp_reply ppf = function
  | Value v -> Fmt.pf ppf "value(%s)" v
  | Not_found -> Fmt.string ppf "not_found"
  | Stored -> Fmt.string ppf "stored"
  | Deleted -> Fmt.string ppf "deleted"

let apply t cmd =
  match cmd with
  | Get { key } -> (
    match Hashtbl.find_opt t.table key with Some v -> Value v | None -> Not_found)
  | Put { key; value } ->
    Hashtbl.replace t.table key value;
    Stored
  | Delete { key } ->
    if Hashtbl.mem t.table key then begin
      Hashtbl.remove t.table key;
      Deleted
    end
    else Not_found

let size t = Hashtbl.length t.table
let find t key = Hashtbl.find_opt t.table key

(* --- codec -------------------------------------------------------------- *)

let put_string buf s =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int (String.length s));
  Buffer.add_bytes buf b;
  Buffer.add_string buf s

let get_string data off =
  let len = Int32.to_int (Bytes.get_int32_le data off) in
  (Bytes.sub_string data (off + 4) len, off + 4 + len)

let encode_command ?(client = 0) ?(req_id = 0) cmd =
  let buf = Buffer.create 32 in
  let hdr = Bytes.create 9 in
  Bytes.set hdr 0
    (match cmd with Get _ -> 'G' | Put _ -> 'P' | Delete _ -> 'D');
  Bytes.set_int32_le hdr 1 (Int32.of_int client);
  Bytes.set_int32_le hdr 5 (Int32.of_int req_id);
  Buffer.add_bytes buf hdr;
  (match cmd with
  | Get { key } | Delete { key } -> put_string buf key
  | Put { key; value } ->
    put_string buf key;
    put_string buf value);
  Buffer.to_bytes buf

let decode_command data =
  if Bytes.length data < 9 then None
  else
    try
      let client = Int32.to_int (Bytes.get_int32_le data 1) in
      let req_id = Int32.to_int (Bytes.get_int32_le data 5) in
      match Bytes.get data 0 with
      | 'G' ->
        let key, _ = get_string data 9 in
        Some (client, req_id, Get { key })
      | 'D' ->
        let key, _ = get_string data 9 in
        Some (client, req_id, Delete { key })
      | 'P' ->
        let key, off = get_string data 9 in
        let value, _ = get_string data off in
        Some (client, req_id, Put { key; value })
      | _ -> None
    with Invalid_argument _ -> None

let encode_reply r =
  match r with
  | Value v ->
    let buf = Buffer.create (String.length v + 1) in
    Buffer.add_char buf 'V';
    put_string buf v;
    Buffer.to_bytes buf
  | Not_found -> Bytes.of_string "N"
  | Stored -> Bytes.of_string "S"
  | Deleted -> Bytes.of_string "D"

let decode_reply data =
  if Bytes.length data < 1 then None
  else
    try
      match Bytes.get data 0 with
      | 'V' ->
        let v, _ = get_string data 1 in
        Some (Value v)
      | 'N' -> Some Not_found
      | 'S' -> Some Stored
      | 'D' -> Some Deleted
      | _ -> None
    with Invalid_argument _ -> None

let apply_dedup t ~client ~req_id cmd =
  match Hashtbl.find_opt t.last_applied client with
  | Some (last, reply) when last = req_id ->
    Option.value (decode_reply reply) ~default:Not_found
  | Some _ | None ->
    let reply = apply t cmd in
    Hashtbl.replace t.last_applied client (req_id, encode_reply reply);
    reply

(* --- checkpointing -------------------------------------------------------- *)

let snapshot t =
  let buf = Buffer.create 1024 in
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int (Hashtbl.length t.table));
  Buffer.add_bytes buf b;
  Hashtbl.iter
    (fun k v ->
      put_string buf k;
      put_string buf v)
    t.table;
  Buffer.to_bytes buf

let restore data =
  let t = create () in
  let count = Int32.to_int (Bytes.get_int32_le data 0) in
  let off = ref 4 in
  for _ = 1 to count do
    let k, o = get_string data !off in
    let v, o = get_string data o in
    Hashtbl.replace t.table k v;
    off := o
  done;
  t

(* [lose_put_every] is the injected SMR bug (DESIGN.md §19): every k-th
   Put is acknowledged but not applied. Per-instance counter: every
   replica applies the identical committed sequence, so all replicas lose
   the same writes and the divergence is purely client-visible. *)
let smr_app ?(lose_put_every = 0) () =
  let store = ref (create ()) in
  let puts_applied = ref 0 in
  {
    Mu.Smr.apply =
      (fun payload ->
        match decode_command payload with
        | Some (client, req_id, cmd) ->
          let fresh =
            (* Dedup check first so a re-delivered Put is not counted (or
               lost) twice — replays must see the recorded reply. *)
            match Hashtbl.find_opt !store.last_applied client with
            | Some (last, _) when last = req_id -> false
            | _ -> true
          in
          if
            lose_put_every > 0 && fresh
            &&
            match cmd with
            | Put _ ->
              incr puts_applied;
              !puts_applied mod lose_put_every = 0
            | _ -> false
          then begin
            let reply = encode_reply Stored in
            Hashtbl.replace !store.last_applied client (req_id, reply);
            reply
          end
          else encode_reply (apply_dedup !store ~client ~req_id cmd)
        | None -> Bytes.empty);
    snapshot = (fun () -> snapshot !store);
    install = (fun data -> store := restore data);
  }

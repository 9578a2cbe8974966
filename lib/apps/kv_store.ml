(* Monomorphic tables with the generic hash: the same buckets, so the
   same iteration order (and snapshot bytes) as [Hashtbl]'s, without
   polymorphic comparison. *)
module Stbl = Hashtbl.Make (struct include String let hash = Hashtbl.hash end)
module Ctbl = Hashtbl.Make (struct include Int let hash = Hashtbl.hash end)

type t = {
  table : string Stbl.t;
  (* Client sessions: the last request id applied per client, and its
     reply. Ids only grow, so any id at or below it is a duplicate. *)
  last_applied : (int * Bytes.t) Ctbl.t;
}

let create () = { table = Stbl.create 1024; last_applied = Ctbl.create 64 }

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
    match Stbl.find_opt t.table key with Some v -> Value v | None -> Not_found)
  | Put { key; value } ->
    Stbl.replace t.table key value;
    Stored
  | Delete { key } ->
    if Stbl.mem t.table key then begin
      Stbl.remove t.table key;
      Deleted
    end
    else Not_found

let size t = Stbl.length t.table
let find t key = Stbl.find_opt t.table key

(* --- codec -------------------------------------------------------------- *)

let put_int buf v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  Buffer.add_bytes buf b

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

let get_int data off = Int32.to_int (Bytes.get_int32_le data off)

let get_string data off =
  let len = get_int data off in
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
      let client = get_int data 1 in
      let req_id = get_int data 5 in
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

(* The session keeps the encoded reply and the caller gets those same
   bytes, as the lose-put path of [smr_app] does. *)
let apply_dedup t ~client ~req_id cmd =
  match Ctbl.find_opt t.last_applied client with
  | Some (last, reply) when req_id <= last -> reply
  | Some _ | None ->
    let reply = encode_reply (apply t cmd) in
    Ctbl.replace t.last_applied client (req_id, reply);
    reply

(* --- checkpointing -------------------------------------------------------- *)

(* The table, then the session table: a replica that installs a
   checkpoint must still recognise every duplicate (§5.4). *)
let snapshot t =
  let buf = Buffer.create 1024 in
  put_int buf (Stbl.length t.table);
  Stbl.iter
    (fun k v ->
      put_string buf k;
      put_string buf v)
    t.table;
  put_int buf (Ctbl.length t.last_applied);
  Ctbl.iter
    (fun client (req_id, reply) ->
      put_int buf client;
      put_int buf req_id;
      put_string buf (Bytes.to_string reply))
    t.last_applied;
  Buffer.to_bytes buf

let restore data =
  let t = create () in
  let off = ref 4 in
  for _ = 1 to get_int data 0 do
    let k, o = get_string data !off in
    let v, o = get_string data o in
    Stbl.replace t.table k v;
    off := o
  done;
  let sessions = get_int data !off in
  off := !off + 4;
  for _ = 1 to sessions do
    let client = get_int data !off and req_id = get_int data (!off + 4) in
    let reply, o = get_string data (!off + 8) in
    Ctbl.replace t.last_applied client (req_id, Bytes.of_string reply);
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
          if
            lose_put_every > 0
            (* Dedup check first so a re-delivered Put is not counted (or
               lost) twice — replays must see the recorded reply. *)
            && (match Ctbl.find_opt !store.last_applied client with
               | Some (last, _) when req_id <= last -> false
               | _ -> true)
            &&
            match cmd with
            | Put _ ->
              incr puts_applied;
              !puts_applied mod lose_put_every = 0
            | _ -> false
          then begin
            let reply = encode_reply Stored in
            Ctbl.replace !store.last_applied client (req_id, reply);
            reply
          end
          else apply_dedup !store ~client ~req_id cmd
        | None -> Bytes.empty);
    snapshot = (fun () -> snapshot !store);
    install = (fun data -> store := restore data);
  }

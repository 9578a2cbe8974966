type t = { groups : Smr.t array }

let create engine cal config ~shards ~make_app =
  if shards < 1 then invalid_arg "Sharded.create: need at least one shard";
  {
    groups =
      Array.init shards (fun shard ->
          Smr.create engine cal config ~make_app:(fun replica -> make_app ~shard ~replica));
  }

let start t = Array.iter Smr.start t.groups
let stop t = Array.iter Smr.stop t.groups
let shards t = Array.length t.groups
let shard t i = t.groups.(i)

(* Stable string hash; independent of OCaml's randomized hashing. *)
let key_hash key =
  let h = ref 5381 in
  for i = 0 to String.length key - 1 do
    h := ((!h lsl 5) + !h + Char.code (String.unsafe_get key i)) land 0x3FFFFFFF
  done;
  !h

let shard_of_key t key = key_hash key mod Array.length t.groups

let submit_async ?retry t ~key payload =
  Smr.submit_async ?retry t.groups.(shard_of_key t key) payload

let submit t ~key payload = Smr.submit t.groups.(shard_of_key t key) payload
let wait_live t = Array.iter Smr.wait_live t.groups
let queue_depth t i = Smr.queue_depth t.groups.(i)

type canary_mode = Flag | Checksum

type t = {
  mr : Rdma.Mr.t;
  slots : int;
  value_cap : int;
  slot_size : int;
  canary : canary_mode;
}

type slot = { proposal : int64; value : bytes }

(* One-byte entry checksum, never zero so an absent entry (zeroed slot)
   can always be told apart from a present one. *)
let checksum_of ~proposal ~len ~sum =
  let p = proposal land 0xffff in
  Char.chr (1 + (((p land 0xff) + (p lsr 8) + len + sum) mod 255))

let checksum ~proposal ~value =
  let sum = ref 0 in
  Bytes.iter (fun c -> sum := !sum + Char.code c) value;
  checksum_of ~proposal:(Int64.to_int proposal) ~len:(Bytes.length value) ~sum:!sum

let header_size = 16
let min_proposal_offset = 0
let fuo_offset = 8
let entry_header = 12 (* proposal(8) + length(4) *)

let slot_size_for ~value_cap =
  (* proposal(8) + length(4) + value + canary(1), rounded up to 8. *)
  let raw = entry_header + value_cap + 1 in
  (raw + 7) / 8 * 8

let required_size ~slots ~value_cap = header_size + (slots * slot_size_for ~value_cap)

let attach ?(canary = Flag) mr ~slots ~value_cap =
  if slots <= 0 then invalid_arg "Log.attach: slots must be positive";
  if value_cap <= 0 then invalid_arg "Log.attach: value_cap must be positive";
  let need = required_size ~slots ~value_cap in
  if Rdma.Mr.size mr < need then
    invalid_arg
      (Printf.sprintf "Log.attach: MR too small (%d < %d)" (Rdma.Mr.size mr) need);
  { mr; slots; value_cap; slot_size = slot_size_for ~value_cap; canary }

let mr t = t.mr
let slots t = t.slots
let slot_size t = t.slot_size
let slot_offset t idx = header_size + (idx mod t.slots * t.slot_size)
let entry_bytes ~value_len = entry_header + value_len + 1

let min_proposal t = Rdma.Mr.get_i64 t.mr ~off:min_proposal_offset
let set_min_proposal t v = Rdma.Mr.set_i64 t.mr ~off:min_proposal_offset v
let fuo t = Rdma.Mr.get_int t.mr ~off:fuo_offset
let set_fuo t v = Rdma.Mr.set_int t.mr ~off:fuo_offset v

(* An entry is written as one contiguous image: proposal, length, value
   bytes, then the canary as the very last byte. Under left-to-right DMA
   the canary lands after the data it guards; a reader validates the
   length field (written before the canary) and then checks the canary at
   [entry_header + length]. *)
let validate ~proposal ~value ~byte ~canary =
  let complete =
    match canary with Flag -> byte <> '\000' | Checksum -> byte = checksum ~proposal ~value
  in
  if complete then Some { proposal; value } else None

let decode_image buf off ~value_cap ~canary =
  let proposal = Bytes.get_int64_le buf off in
  if proposal = 0L then None
  else
    let len = Int32.to_int (Bytes.get_int32_le buf (off + 8)) in
    if len < 0 || len > value_cap then None
    else
      validate ~proposal ~canary
        ~value:(Bytes.sub buf (off + entry_header) len)
        ~byte:(Bytes.get buf (off + entry_header + len))

(* The same decoding read straight from the MR: an empty slot costs one
   load and allocates nothing. *)
let read_slot t idx =
  let off = slot_offset t idx in
  let proposal = Rdma.Mr.get_int t.mr ~off in
  if proposal = 0 then None
  else
    let proposal = Int64.of_int proposal in
    let len = Int32.to_int (Rdma.Mr.get_i32 t.mr ~off:(off + 8)) in
    if len < 0 || len > t.value_cap then None
    else
      let byte = Rdma.Mr.get_char t.mr ~off:(off + entry_header + len) in
      if t.canary = Flag && byte = '\000' then None
      else
        validate ~proposal ~canary:t.canary ~byte
          ~value:(Rdma.Mr.get_bytes t.mr ~off:(off + entry_header) ~len)

(* [read_slot t idx <> None] without copying the value out: the header
   and canary are read in place, and a checksum sums the value bytes
   where they lie. *)
let slot_filled t idx =
  let off = slot_offset t idx in
  let proposal = Rdma.Mr.get_int t.mr ~off in
  proposal <> 0
  &&
  let len = Int32.to_int (Rdma.Mr.get_i32 t.mr ~off:(off + 8)) in
  len >= 0 && len <= t.value_cap
  &&
  let byte = Rdma.Mr.get_char t.mr ~off:(off + entry_header + len) in
  match t.canary with
  | Flag -> byte <> '\000'
  | Checksum ->
    let sum = ref 0 in
    for i = off + entry_header to off + entry_header + len - 1 do
      sum := !sum + Char.code (Rdma.Mr.get_char t.mr ~off:i)
    done;
    byte = checksum_of ~proposal ~len ~sum:!sum

let read_slot_raw t idx = Rdma.Mr.get_bytes t.mr ~off:(slot_offset t idx) ~len:t.slot_size

let encode_slot t ~proposal ~value =
  let len = Bytes.length value in
  if len > t.value_cap then invalid_arg "Log.encode_slot: value exceeds capacity";
  if proposal = 0L then invalid_arg "Log.encode_slot: proposal must be non-zero";
  let img = Bytes.make (entry_bytes ~value_len:len) '\000' in
  Bytes.set_int64_le img 0 proposal;
  Bytes.set_int32_le img 8 (Int32.of_int len);
  Bytes.blit value 0 img entry_header len;
  Bytes.set img (entry_header + len)
    (match t.canary with Flag -> '\001' | Checksum -> checksum ~proposal ~value);
  img

let decode_slot t img =
  if Bytes.length img < entry_header + 1 then None
  else
    decode_image img 0 ~value_cap:(Bytes.length img - entry_header - 1) ~canary:t.canary

let write_slot_raw_local t idx img =
  let len = Bytes.length img in
  if len > t.slot_size then invalid_arg "Log.write_slot_raw_local: image too large";
  Rdma.Mr.set_bytes t.mr ~off:(slot_offset t idx) img

let write_slot_local t idx ~proposal ~value =
  write_slot_raw_local t idx (encode_slot t ~proposal ~value)

let zero_slot_local t idx = Rdma.Mr.zero t.mr ~off:(slot_offset t idx) ~len:t.slot_size

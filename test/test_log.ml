(* Tests for the consensus log layout: slots, canary discipline, circular
   indexing, header fields. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_log ?canary ?(slots = 16) ?(value_cap = 64) () =
  let e = Util.engine () in
  let h = Util.host e ~id:0 in
  let mr =
    Rdma.Mr.register h ~size:(Mu.Log.required_size ~slots ~value_cap)
      ~access:Rdma.Verbs.access_rw
  in
  Mu.Log.attach ?canary mr ~slots ~value_cap

let header_fields () =
  let log = make_log () in
  check_int "fuo starts 0" 0 (Mu.Log.fuo log);
  Alcotest.(check int64) "minProposal starts 0" 0L (Mu.Log.min_proposal log);
  Mu.Log.set_fuo log 42;
  Mu.Log.set_min_proposal log 7L;
  check_int "fuo" 42 (Mu.Log.fuo log);
  Alcotest.(check int64) "minProposal" 7L (Mu.Log.min_proposal log)

let empty_slot_reads_none () =
  let log = make_log () in
  for i = 0 to 15 do
    check "empty" true (Mu.Log.read_slot log i = None)
  done

let write_read_roundtrip () =
  let log = make_log () in
  Mu.Log.write_slot_local log 3 ~proposal:9L ~value:(Bytes.of_string "value");
  match Mu.Log.read_slot log 3 with
  | Some { Mu.Log.proposal; value } ->
    Alcotest.(check int64) "proposal" 9L proposal;
    Alcotest.(check string) "value" "value" (Bytes.to_string value)
  | None -> Alcotest.fail "slot empty"

let empty_value_roundtrip () =
  let log = make_log () in
  Mu.Log.write_slot_local log 0 ~proposal:1L ~value:Bytes.empty;
  match Mu.Log.read_slot log 0 with
  | Some { Mu.Log.value; _ } -> check_int "empty payload" 0 (Bytes.length value)
  | None -> Alcotest.fail "slot empty"

let max_value_roundtrip () =
  let log = make_log ~value_cap:64 () in
  let v = Bytes.make 64 'm' in
  Mu.Log.write_slot_local log 1 ~proposal:2L ~value:v;
  match Mu.Log.read_slot log 1 with
  | Some { Mu.Log.value; _ } -> Alcotest.(check bytes) "full payload" v value
  | None -> Alcotest.fail "slot empty"

let oversized_value_rejected () =
  let log = make_log ~value_cap:64 () in
  check "raises" true
    (try
       ignore (Mu.Log.encode_slot log ~proposal:1L ~value:(Bytes.make 65 'x'));
       false
     with Invalid_argument _ -> true)

let zero_proposal_rejected () =
  let log = make_log () in
  check "raises" true
    (try
       ignore (Mu.Log.encode_slot log ~proposal:0L ~value:Bytes.empty);
       false
     with Invalid_argument _ -> true)

let canary_guards_incomplete_entry () =
  (* Write the entry image except its final (canary) byte: the reader must
     treat the slot as empty. *)
  let log = make_log () in
  let img = Mu.Log.encode_slot log ~proposal:5L ~value:(Bytes.of_string "abc") in
  let torn = Bytes.sub img 0 (Bytes.length img - 1) in
  Mu.Log.write_slot_raw_local log 2 torn;
  check "incomplete entry invisible" true (Mu.Log.read_slot log 2 = None);
  Mu.Log.write_slot_raw_local log 2 img;
  check "complete entry visible" true (Mu.Log.read_slot log 2 <> None)

let canary_is_final_byte () =
  let log = make_log () in
  let img = Mu.Log.encode_slot log ~proposal:5L ~value:(Bytes.of_string "abcd") in
  check "last byte is the canary" true (Bytes.get img (Bytes.length img - 1) = '\001');
  check_int "image length" (Mu.Log.entry_bytes ~value_len:4) (Bytes.length img)

let zero_slot_erases () =
  let log = make_log () in
  Mu.Log.write_slot_local log 4 ~proposal:3L ~value:(Bytes.of_string "x");
  Mu.Log.zero_slot_local log 4;
  check "erased" true (Mu.Log.read_slot log 4 = None)

let circular_indexing () =
  let log = make_log ~slots:8 () in
  check_int "wraps" (Mu.Log.slot_offset log 1) (Mu.Log.slot_offset log 9);
  check "distinct within capacity" true
    (Mu.Log.slot_offset log 1 <> Mu.Log.slot_offset log 2);
  (* Reuse after zeroing: index 9 lands on index 1's physical slot. *)
  Mu.Log.write_slot_local log 1 ~proposal:1L ~value:(Bytes.of_string "old");
  Mu.Log.zero_slot_local log 1;
  Mu.Log.write_slot_local log 9 ~proposal:2L ~value:(Bytes.of_string "new");
  match Mu.Log.read_slot log 9 with
  | Some { Mu.Log.value; _ } -> Alcotest.(check string) "new entry" "new" (Bytes.to_string value)
  | None -> Alcotest.fail "slot empty"

let stale_canary_would_lie_without_zeroing () =
  (* Demonstrates why recycling must zero slots before reuse (§5.3): a
     torn (canary-less) write of a short entry over a longer stale one
     finds the old entry's residual bytes where its canary should be, and
     the incomplete entry becomes visible. Zeroing the slot first removes
     the hazard. *)
  let log = make_log ~slots:4 () in
  let long_v = Bytes.make 40 'L' in
  Mu.Log.write_slot_local log 0 ~proposal:1L ~value:long_v;
  let short_img = Mu.Log.encode_slot log ~proposal:2L ~value:(Bytes.of_string "s") in
  let torn = Bytes.sub short_img 0 (Bytes.length short_img - 1) in
  Mu.Log.write_slot_raw_local log 4 torn;
  (match Mu.Log.read_slot log 4 with
  | Some { Mu.Log.proposal; _ } ->
    check "hazard: torn entry visible over stale bytes" true (proposal = 2L)
  | None -> Alcotest.fail "expected the hazard to manifest without zeroing");
  (* Proper discipline: zero, then write. *)
  Mu.Log.zero_slot_local log 4;
  Mu.Log.write_slot_raw_local log 4 torn;
  check "torn entry invisible after zeroing" true (Mu.Log.read_slot log 4 = None)

let decode_slot_roundtrip () =
  let log = make_log () in
  let img = Mu.Log.encode_slot log ~proposal:11L ~value:(Bytes.of_string "roundtrip") in
  match Mu.Log.decode_slot log img with
  | Some { Mu.Log.proposal; value } ->
    Alcotest.(check int64) "proposal" 11L proposal;
    Alcotest.(check string) "value" "roundtrip" (Bytes.to_string value)
  | None -> Alcotest.fail "decode failed"

let decode_garbage_is_none () =
  let log = make_log () in
  check "short" true (Mu.Log.decode_slot log (Bytes.make 4 'x') = None);
  check "zeros" true (Mu.Log.decode_slot log (Bytes.make 64 '\000') = None)

(* A checksum-mode log decodes under its own canary: its image round-trips,
   and a corrupted middle byte, which a flag-mode log would accept, is
   rejected. *)
let decode_slot_checksum_roundtrip () =
  let sum_log = make_log ~canary:Mu.Log.Checksum () in
  let img = Mu.Log.encode_slot sum_log ~proposal:7L ~value:(Bytes.of_string "summed") in
  (match Mu.Log.decode_slot sum_log img with
  | Some { Mu.Log.proposal; value } ->
    Alcotest.(check int64) "proposal" 7L proposal;
    Alcotest.(check string) "value" "summed" (Bytes.to_string value)
  | None -> Alcotest.fail "checksum decode failed");
  Bytes.set img 14 (Char.chr (Char.code (Bytes.get img 14) lxor 0xff));
  check "checksum log rejects corruption" true (Mu.Log.decode_slot sum_log img = None);
  check "flag log trusts the final byte" true (Mu.Log.decode_slot (make_log ()) img <> None)

let required_size_consistent () =
  let slots = 32 and value_cap = 100 in
  let log = make_log ~slots ~value_cap () in
  check "last slot in bounds" true
    (Mu.Log.slot_offset log (slots - 1) + Mu.Log.slot_size log
    <= Mu.Log.required_size ~slots ~value_cap)

let attach_rejects_small_mr () =
  let e = Util.engine () in
  let h = Util.host e ~id:0 in
  let mr = Rdma.Mr.register h ~size:64 ~access:Rdma.Verbs.access_rw in
  check "raises" true
    (try
       ignore (Mu.Log.attach mr ~slots:100 ~value_cap:1024);
       false
     with Invalid_argument _ -> true)

let checksum_canary_detects_corruption () =
  (* The Flag canary relies on left-to-right DMA: a corrupted middle byte
     with an intact trailing flag goes unnoticed. The Checksum canary
     (§4.2's alternative) catches it. *)
  let make mode =
    let e = Util.engine () in
    let h = Util.host e ~id:0 in
    let mr =
      Rdma.Mr.register h ~size:(Mu.Log.required_size ~slots:4 ~value_cap:64)
        ~access:Rdma.Verbs.access_rw
    in
    Mu.Log.attach ~canary:mode mr ~slots:4 ~value_cap:64
  in
  let corrupt_middle log =
    let img = Mu.Log.encode_slot log ~proposal:5L ~value:(Bytes.of_string "payload") in
    Bytes.set img 14 (Char.chr (Char.code (Bytes.get img 14) lxor 0xff));
    Mu.Log.write_slot_raw_local log 0 img;
    Mu.Log.read_slot log 0
  in
  let flag_log = make Mu.Log.Flag in
  check "flag mode trusts the trailing byte" true (corrupt_middle flag_log <> None);
  let sum_log = make Mu.Log.Checksum in
  check "checksum mode rejects corruption" true (corrupt_middle sum_log = None)

let checksum_canary_roundtrip () =
  let e = Util.engine () in
  let h = Util.host e ~id:0 in
  let mr =
    Rdma.Mr.register h ~size:(Mu.Log.required_size ~slots:4 ~value_cap:64)
      ~access:Rdma.Verbs.access_rw
  in
  let log = Mu.Log.attach ~canary:Mu.Log.Checksum mr ~slots:4 ~value_cap:64 in
  Mu.Log.write_slot_local log 1 ~proposal:3L ~value:(Bytes.of_string "ok");
  (match Mu.Log.read_slot log 1 with
  | Some { Mu.Log.value; _ } -> Alcotest.(check string) "value" "ok" (Bytes.to_string value)
  | None -> Alcotest.fail "checksum entry unreadable");
  (* Torn write (missing final byte) still treated as absent. *)
  let img = Mu.Log.encode_slot log ~proposal:4L ~value:(Bytes.of_string "torn") in
  Mu.Log.zero_slot_local log 2;
  Mu.Log.write_slot_raw_local log 2 (Bytes.sub img 0 (Bytes.length img - 1));
  check "torn write invisible" true (Mu.Log.read_slot log 2 = None)

(* [slot_filled] is [read_slot <> None] without the copy: compared on
   random header/value/canary images (lengths in and out of range, every
   canary byte class), torn writes (a valid image cut short or with one
   byte flipped) and zeroed slots, under both canaries. *)
let slot_filled_matches_read_slot () =
  let rng = Sim.Rng.create 17L in
  List.iter
    (fun canary ->
      let e = Util.engine () in
      let h = Util.host e ~id:0 in
      let slots = 8 and value_cap = 40 in
      let mr =
        Rdma.Mr.register h ~size:(Mu.Log.required_size ~slots ~value_cap)
          ~access:Rdma.Verbs.access_rw
      in
      let log = Mu.Log.attach ~canary mr ~slots ~value_cap in
      let slot_size = Mu.Log.slot_size log in
      let random_value () =
        Bytes.init (Sim.Rng.int rng (value_cap + 1)) (fun _ -> Char.chr (Sim.Rng.int rng 256))
      in
      for trial = 1 to 3000 do
        let idx = Sim.Rng.int rng slots in
        Mu.Log.zero_slot_local log idx;
        (match trial mod 3 with
        | 0 ->
          (* random image *)
          let img = Bytes.init slot_size (fun _ -> Char.chr (Sim.Rng.int rng 256)) in
          if Sim.Rng.bool rng then Bytes.set_int64_le img 0 (Int64.of_int (Sim.Rng.int rng 3));
          let len = Sim.Rng.int rng (value_cap + 5) - 2 in
          Bytes.set_int32_le img 8 (Int32.of_int len);
          if len >= 0 && len <= value_cap then
            Bytes.set img (12 + len)
              (match Sim.Rng.int rng 3 with
              | 0 -> '\000'
              | 1 -> '\001'
              | _ -> Char.chr (Sim.Rng.int rng 256));
          Mu.Log.write_slot_raw_local log idx img
        | 1 ->
          (* torn: a valid image cut short, or with one byte flipped *)
          let img =
            Mu.Log.encode_slot log
              ~proposal:(Int64.of_int (1 + Sim.Rng.int rng 100_000))
              ~value:(random_value ())
          in
          let n = Bytes.length img in
          if Sim.Rng.bool rng then
            Mu.Log.write_slot_raw_local log idx (Bytes.sub img 0 (Sim.Rng.int rng n))
          else begin
            let i = Sim.Rng.int rng n in
            Bytes.set img i (Char.chr (Char.code (Bytes.get img i) lxor (1 + Sim.Rng.int rng 255)));
            Mu.Log.write_slot_raw_local log idx img
          end
        | _ ->
          (* whole entry, then maybe zeroed again *)
          Mu.Log.write_slot_local log idx
            ~proposal:(Int64.of_int (1 + trial))
            ~value:(random_value ());
          if Sim.Rng.bool rng then Mu.Log.zero_slot_local log idx);
        if Mu.Log.slot_filled log idx <> (Mu.Log.read_slot log idx <> None) then
          Alcotest.failf "trial %d: slot_filled disagrees with read_slot" trial
      done)
    [ Mu.Log.Flag; Mu.Log.Checksum ]

let suite =
  [
    ("header fields", `Quick, header_fields);
    ("empty slot reads none", `Quick, empty_slot_reads_none);
    ("write/read roundtrip", `Quick, write_read_roundtrip);
    ("empty value roundtrip", `Quick, empty_value_roundtrip);
    ("max value roundtrip", `Quick, max_value_roundtrip);
    ("oversized value rejected", `Quick, oversized_value_rejected);
    ("zero proposal rejected", `Quick, zero_proposal_rejected);
    ("canary guards incomplete entry", `Quick, canary_guards_incomplete_entry);
    ("canary is final byte", `Quick, canary_is_final_byte);
    ("zero slot erases", `Quick, zero_slot_erases);
    ("circular indexing", `Quick, circular_indexing);
    ("recycling zeroing rationale", `Quick, stale_canary_would_lie_without_zeroing);
    ("decode slot roundtrip", `Quick, decode_slot_roundtrip);
    ("decode garbage is none", `Quick, decode_garbage_is_none);
    ("decode slot checksum roundtrip", `Quick, decode_slot_checksum_roundtrip);
    ("required size consistent", `Quick, required_size_consistent);
    ("attach rejects small mr", `Quick, attach_rejects_small_mr);
    ("checksum canary detects corruption", `Quick, checksum_canary_detects_corruption);
    ("checksum canary roundtrip", `Quick, checksum_canary_roundtrip);
    ("slot filled matches read slot", `Quick, slot_filled_matches_read_slot);
  ]

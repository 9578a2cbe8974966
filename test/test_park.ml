(* Parked pollers and zero-on-demand memory: the replayer and the
   permission manager observe memory at the instants of their old busy
   poll grids, an idle cluster schedules few events, a large log costs
   nothing until written, and the page store behaves like flat bytes. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let count_events e =
  let n = ref 0 in
  Sim.Engine.set_profiler e
    {
      Sim.Engine.prof_event = (fun ~now:_ -> incr n);
      prof_attr = (fun ~pid:_ ~tid:_ ~spans:_ -> ());
      prof_fiber = (fun ~tid:_ ~pid:_ ~name:_ -> ());
      prof_span = (fun ~id:_ ~name:_ -> ());
      prof_host = (fun ~pid:_ ~name:_ -> ());
    };
  n

(* Run [smr] until its first commit, then halt. *)
let run_until_live e smr =
  Sim.Engine.spawn e ~name:"driver" (fun () ->
      Mu.Smr.wait_live smr;
      Sim.Engine.halt e);
  Sim.Engine.run ~until:1_000_000_000 e

let app _ = Mu.Smr.stateless_app (fun _ -> Bytes.empty)

(* --- event and allocation budgets ---------------------------------------- *)

let idle_event_budget () =
  let e = Util.engine () in
  let events = count_events e in
  let smr = Mu.Smr.create e Util.default_cal Mu.Config.default ~make_app:app in
  Mu.Smr.start smr;
  run_until_live e smr;
  Sim.Engine.run ~until:(Sim.Engine.now e + 100_000) e;
  let n0 = !events and t0 = Sim.Engine.now e in
  Sim.Engine.run ~until:(t0 + 1_000_000) e;
  let per_us = float_of_int (!events - n0) /. 1000. in
  if per_us > 4.0 then
    Alcotest.failf "idle cluster schedules %.2f events per virtual us (budget 4)" per_us

let build_allocation_budget () =
  let cfg = { Mu.Config.default with Mu.Config.log_slots = 16_384; value_cap = 1024 } in
  let e = Util.engine () in
  let before = (Gc.quick_stat ()).Gc.major_words in
  let smr = Mu.Smr.create e Util.default_cal cfg ~make_app:app in
  Mu.Smr.start smr;
  run_until_live e smr;
  let mib = ((Gc.quick_stat ()).Gc.major_words -. before) *. 8. /. 1048576. in
  if mib >= 4.0 then Alcotest.failf "building a live cluster took %.1f MiB of major words" mib

(* Minor words per committed request of a warm closed-loop KV client on a
   bare 3-replica cluster: the commands are encoded before the count
   starts, so it is the protocol, the engine and the store. *)
let kv_minor_words_per_commit () =
  let e = Util.engine () in
  let smr =
    Mu.Smr.create e Util.default_cal Mu.Config.default ~make_app:(fun _ ->
        Apps.Kv_store.smr_app ())
  in
  Mu.Smr.start smr;
  let cmds =
    Array.init 1200 (fun i ->
        let key = Printf.sprintf "key-%d" (i mod 97) in
        let cmd = if i mod 2 = 0 then Apps.Kv_store.Put { key; value = "v" } else Get { key } in
        Apps.Kv_store.encode_command ~client:1 ~req_id:(i + 1) cmd)
  in
  let words = ref 0.0 in
  Sim.Engine.spawn e ~name:"client" (fun () ->
      Mu.Smr.wait_live smr;
      for i = 0 to 199 do
        ignore (Mu.Smr.submit smr cmds.(i))
      done;
      let w0 = Gc.minor_words () in
      for i = 200 to 1199 do
        ignore (Mu.Smr.submit smr cmds.(i))
      done;
      words := Gc.minor_words () -. w0;
      Sim.Engine.halt e);
  Sim.Engine.run ~until:1_000_000_000 e;
  !words /. 1000.0

let kv_commit_allocation_budget () =
  let per = kv_minor_words_per_commit () and budget = 1085.66 *. 1.02 in
  if per > budget then
    Alcotest.failf "a KV commit allocates %.1f minor words (budget %.1f)" per budget

(* A bare engine continues a sleep in place when nothing else is due by
   its wake instant ([Engine.fast_forwards]). A due check that answers
   "due" too often keeps every virtual result identical and only slows
   the run, so the count of those decisions on a fixed seeded KV run is
   pinned exactly: 400 closed-loop requests on a bare 3-replica cluster,
   then 200 us of idle heartbeats. *)
let kv_fast_forward_count () =
  let e = Util.engine () in
  let smr =
    Mu.Smr.create e Util.default_cal Mu.Config.default ~make_app:(fun _ ->
        Apps.Kv_store.smr_app ())
  in
  Mu.Smr.start smr;
  let committed = ref 0 in
  Sim.Engine.spawn e ~name:"client" (fun () ->
      Mu.Smr.wait_live smr;
      for i = 1 to 400 do
        let key = Printf.sprintf "key-%d" (i mod 97) in
        let cmd = if i mod 2 = 0 then Apps.Kv_store.Put { key; value = "v" } else Get { key } in
        ignore (Mu.Smr.submit smr (Apps.Kv_store.encode_command ~client:1 ~req_id:i cmd));
        incr committed
      done;
      Sim.Engine.sleep e 200_000;
      Sim.Engine.halt e);
  Sim.Engine.run ~until:1_000_000_000 e;
  check_int "requests committed" 400 !committed;
  check_int "halt instant" 963_757 (Sim.Engine.now e);
  check_int "fast-forwarded sleeps" 1_273 (Sim.Engine.fast_forwards e)

(* --- poll-grid pinning ------------------------------------------------------ *)

(* Replicas with no fibers running; replica 0 may write every log. *)
let bare_cluster () =
  let e = Util.engine () in
  let rs = Mu.Replica.create_cluster e Util.default_cal Mu.Config.default in
  Array.iter
    (fun (r : Mu.Replica.t) ->
      if r.Mu.Replica.id <> 0 then
        Rdma.Qp.set_access (Mu.Replica.peer r 0).Mu.Replica.repl_qp Rdma.Verbs.access_rw)
    rs;
  (e, rs)

(* First instant of the grid [origin + k * period] at or after [at]. *)
let grid ~origin ~period at = origin + ((at - origin + period - 1) / period * period)

let replayer_applies_on_grid () =
  let e, rs = bare_cluster () in
  let leader = rs.(0) and f = rs.(1) in
  let log = f.Mu.Replica.log in
  let stored = ref 0 and applied = ref [] in
  Rdma.Mr.watch (Mu.Log.mr log) ~off:0 ~len:(Rdma.Mr.size (Mu.Log.mr log))
    (fun ~off:_ ~len:_ -> stored := Sim.Engine.now e);
  f.Mu.Replica.on_commit <- (fun idx _ -> applied := (idx, Sim.Engine.now e) :: !applied);
  Mu.Replayer.start f;
  let p = Mu.Replica.peer leader 1 in
  let write_slot idx =
    let img = Mu.Log.encode_slot log ~proposal:8L ~value:(Bytes.of_string "v") in
    Rdma.Qp.post_write p.Mu.Replica.repl_qp ~wr_id:idx ~src:img ~src_off:0
      ~len:(Bytes.length img) ~mr:p.Mu.Replica.remote_log_mr ~dst_off:(Mu.Log.slot_offset log idx);
    ignore (Rdma.Cq.await leader.Mu.Replica.repl_cq)
  in
  let arrivals = Array.make 4 0 in
  let pause_at = 20_500 and resume_at = 23_700 in
  Sim.Engine.schedule e ~at:pause_at (fun () -> Sim.Host.pause f.Mu.Replica.host);
  Sim.Engine.schedule e ~at:resume_at (fun () -> Sim.Host.resume f.Mu.Replica.host);
  Sim.Host.spawn leader.Mu.Replica.host ~name:"writer" (fun () ->
      List.iter
        (fun (idx, at) ->
          Sim.Engine.sleep e (at - Sim.Engine.now e);
          write_slot idx;
          arrivals.(idx) <- !stored)
        [ (0, 12_345); (1, 12_345); (2, 21_000); (3, 30_000) ]);
  Sim.Engine.run ~until:100_000 e;
  check "slot 2 lands inside the pause" true
    (arrivals.(2) > pause_at && arrivals.(2) < resume_at);
  (* Entry i is applied once entry i+1 exists (commit piggybacking). *)
  Alcotest.(check (list (pair int int)))
    "apply instants"
    [
      (0, grid ~origin:0 ~period:1000 arrivals.(1));
      (1, resume_at);
      (2, grid ~origin:resume_at ~period:1000 arrivals.(3));
    ]
    (List.rev !applied)

let permission_manager_grants_on_grid () =
  let e, rs = bare_cluster () in
  let r0 = rs.(0) and r1 = rs.(1) in
  let stored = ref [] and grants = ref [] and ends = ref [] in
  Rdma.Mr.watch r1.Mu.Replica.bg_mr ~off:(Mu.Replica.bg_req_offset 0) ~len:8
    (fun ~off:_ ~len:_ -> stored := Sim.Engine.now e :: !stored);
  Sim.Probe.set_sink (Sim.Engine.probe e) (fun ev ->
      if ev.Sim.Probe.name = "perm_grant" && ev.Sim.Probe.pid = 1 then
        match ev.Sim.Probe.kind with
        | Sim.Probe.Span_begin -> grants := ev.Sim.Probe.ts :: !grants
        | Sim.Probe.Span_end -> ends := ev.Sim.Probe.ts :: !ends
        | _ -> ());
  Mu.Permissions.start r1;
  Sim.Host.spawn r0.Mu.Replica.host ~name:"requester" (fun () ->
      List.iter
        (fun at ->
          Sim.Engine.sleep e (at - Sim.Engine.now e);
          ignore (Mu.Permissions.request_permissions r0))
        [ 7_777; 1_000_001 ]);
  Sim.Engine.run ~until:2_000_000 e;
  (* Serving a request occupies the thread; it rescans one interval after
     the grant ends, and that rescan starts its grid afresh. *)
  match List.rev !stored, List.rev !grants, List.rev !ends with
  | [ s1; s2 ], [ g1; g2 ], [ end1; _ ] ->
    check_int "first grant on the 2 us grid" (grid ~origin:0 ~period:2000 s1) g1;
    check_int "second grant on the grid after the first"
      (grid ~origin:(end1 + Mu.Permissions.poll_interval) ~period:2000 s2)
      g2
  | s, g, _ ->
    Alcotest.failf "expected two requests and two grants, got %d and %d" (List.length s)
      (List.length g)

(* --- page store --------------------------------------------------------------- *)

let page = Sim.Mem.page_size

(* One directory of the two-level store spans 256 pages (64 KiB). *)
let dir = 256 * page

type op =
  | Set_i64 of int * int64
  | Set_i32 of int * int32
  | Set_char of int * char
  | Blit of int * string
  | Fill of int * int * char

let pp_op = function
  | Set_i64 (o, v) -> Printf.sprintf "set_i64 %d %Ld" o v
  | Set_i32 (o, v) -> Printf.sprintf "set_i32 %d %ld" o v
  | Set_char (o, c) -> Printf.sprintf "set_char %d %C" o c
  | Blit (o, s) -> Printf.sprintf "blit %d (%d bytes)" o (String.length s)
  | Fill (o, n, c) -> Printf.sprintf "fill %d %d %C" o n c

(* Offsets cluster around page and directory boundaries and the
   region's ends, with a few out of bounds. *)
let offset_gen size =
  QCheck.Gen.(
    let near unit = map2 (fun k d -> (k * unit) + d) (0 -- (size / unit)) (-9 -- 9) in
    frequency
      [
        (3, near page);
        (2, near dir);
        (2, 0 -- (size - 1));
        (1, map (fun d -> size + d) (-9 -- 3));
        (1, -3 -- -1);
      ])

(* Fills are short, or long enough to cover whole pages and directories. *)
let op_gen size =
  QCheck.Gen.(
    let off = offset_gen size in
    oneof
      [
        map2 (fun o v -> Set_i64 (o, v)) off (map Int64.of_int int);
        map2 (fun o v -> Set_i32 (o, v)) off (map Int32.of_int int);
        map2 (fun o c -> Set_char (o, c)) off printable;
        map2 (fun o s -> Blit (o, s)) off (string_size (0 -- 300));
        map3
          (fun o n c -> Fill (o, n, c))
          off
          (oneof [ 0 -- 300; 0 -- (size + 10) ])
          (oneofl [ '\000'; 'z' ]);
      ])

let outcome f = match f () with v -> Some v | exception Invalid_argument _ -> None

(* The store lands, or fails with [Invalid_argument], alike on both. *)
let apply_both mem flat op =
  let paged, reference =
    match op with
    | Set_i64 (o, v) -> ((fun () -> Sim.Mem.set_i64 mem o v), fun () -> Bytes.set_int64_le flat o v)
    | Set_i32 (o, v) -> ((fun () -> Sim.Mem.set_i32 mem o v), fun () -> Bytes.set_int32_le flat o v)
    | Set_char (o, c) -> ((fun () -> Sim.Mem.set_char mem o c), fun () -> Bytes.set flat o c)
    | Blit (o, s) ->
      let b = Bytes.of_string s and n = String.length s in
      ((fun () -> Sim.Mem.blit_from_bytes b 0 mem o n), fun () -> Bytes.blit b 0 flat o n)
    | Fill (o, n, c) ->
      ((fun () -> Sim.Mem.fill mem ~off:o ~len:n c), fun () -> Bytes.fill flat o n c)
  in
  outcome paged = outcome reference

(* Every read agrees at the op's offset, including straddling and
   out-of-bounds ones. *)
let reads_agree mem flat o =
  outcome (fun () -> Sim.Mem.get_i64 mem o) = outcome (fun () -> Bytes.get_int64_le flat o)
  && outcome (fun () -> Sim.Mem.get_i32 mem o) = outcome (fun () -> Bytes.get_int32_le flat o)
  && outcome (fun () -> Sim.Mem.get_char mem o) = outcome (fun () -> Bytes.get flat o)
  && outcome (fun () -> Sim.Mem.sub mem ~off:o ~len:17) = outcome (fun () -> Bytes.sub flat o 17)

let op_offset = function
  | Set_i64 (o, _) | Set_i32 (o, _) | Set_char (o, _) | Blit (o, _) | Fill (o, _, _) -> o

(* Page reuse: every byte is set to 'p', a zero fill over whole pages
   hands them back, and partial-page stores of a new pattern ('a'..'f')
   then land in those pages. A page handed out again must read zero
   wherever the new stores did not write. Draws the first returned page,
   the number returned and the stores. *)
let reuse_gen size =
  QCheck.Gen.(
    let pages = (size + page - 1) / page in
    0 -- (pages - 1) >>= fun first ->
    1 -- (pages - first) >>= fun n ->
    let lo = first * page and hi = min size ((first + n) * page) in
    let off = lo -- (hi - 1) and pattern = char_range 'a' 'f' in
    let store =
      oneof
        [
          map2 (fun o c -> Set_char (o, c)) off pattern;
          map2 (fun o s -> Blit (o, s)) off (string_size ~gen:pattern (1 -- (page / 2)));
          map2
            (fun o s -> Set_i32 (o, Bytes.get_int32_le (Bytes.of_string s) 0))
            off (string_size ~gen:pattern (return 4));
        ]
    in
    map (fun stores -> (first, n, stores)) (list_size (1 -- 8) store))

(* The fills that set every byte, then return pages [first, first + n). *)
let reuse_fills size (first, n, _) =
  let lo = first * page in
  [ Fill (0, size, 'p'); Fill (lo, min size ((first + n) * page) - lo, '\000') ]

let page_store_model =
  let sizes =
    [ 1; 64; page; page + 1; (3 * page) + 100; dir; dir + 1; (2 * dir) + (3 * page) + 100 ]
  in
  QCheck.Test.make ~name:"page store matches flat bytes" ~count:300
    QCheck.(
      make
        ~print:(fun (size, ops, ((_, _, stores) as reuse)) ->
          Printf.sprintf "size %d: %s; then %s" size
            (String.concat "; " (List.map pp_op ops))
            (String.concat "; " (List.map pp_op (reuse_fills size reuse @ stores))))
        Gen.(
          oneofl sizes >>= fun size ->
          map2
            (fun ops reuse -> (size, ops, reuse))
            (list_size (1 -- 40) (op_gen size))
            (reuse_gen size)))
    (fun (size, ops, ((_, n, stores) as reuse)) ->
      let mem = Sim.Mem.create size and flat = Bytes.make size '\000' in
      let pages = (size + page - 1) / page in
      let run =
        List.for_all (fun op -> apply_both mem flat op && reads_agree mem flat (op_offset op))
      in
      run ops
      && Sim.Mem.sub mem ~off:0 ~len:size = flat
      && Sim.Mem.pages_materialized mem <= pages
      && run (reuse_fills size reuse)
      && Sim.Mem.pages_materialized mem = pages - n
      && run stores
      && Sim.Mem.sub mem ~off:0 ~len:size = flat
      &&
      (Sim.Mem.fill mem ~off:0 ~len:size '\000';
       Sim.Mem.pages_materialized mem = 0))

let pages_on_demand () =
  check_int "pages are 256 bytes" 256 page;
  let mem = Sim.Mem.create (dir + (4 * page) + 10) in
  check_int "nothing materialized" 0 (Sim.Mem.pages_materialized mem);
  Sim.Mem.fill mem ~off:0 ~len:(Sim.Mem.size mem) '\000';
  check_int "zero fill keeps zero pages" 0 (Sim.Mem.pages_materialized mem);
  Sim.Mem.set_i64 mem (page - 4) 0x0102030405060708L;
  check_int "a straddling store touches two pages" 2 (Sim.Mem.pages_materialized mem);
  check "straddling read" true (Sim.Mem.get_i64 mem (page - 4) = 0x0102030405060708L);
  Sim.Mem.set_i32 mem (dir - 2) 0x0a0b0c0dl;
  check_int "so does one across a directory edge" 4 (Sim.Mem.pages_materialized mem);
  check "read across the directory edge" true (Sim.Mem.get_i32 mem (dir - 2) = 0x0a0b0c0dl);
  Sim.Mem.set_char mem (dir + (4 * page) + 9) 'x';
  check_int "the short last page" 5 (Sim.Mem.pages_materialized mem);
  check "last byte" true (Sim.Mem.get_char mem (dir + (4 * page) + 9) = 'x')

(* Zeros over a whole page hand it back to the shared zero page, and
   zeros over whole directories hand back every page in them; a partial
   zero fill keeps the page's own bytes. *)
let zero_fill_returns_pages () =
  let mem = Sim.Mem.create ((3 * page) + 10) in
  Sim.Mem.fill mem ~off:0 ~len:(Sim.Mem.size mem) 'x';
  check_int "every page written" 4 (Sim.Mem.pages_materialized mem);
  Sim.Mem.fill mem ~off:1 ~len:page '\000';
  check_int "partial zero fills keep their pages" 4 (Sim.Mem.pages_materialized mem);
  Sim.Mem.fill mem ~off:page ~len:(page + 1) '\000';
  check_int "a whole page goes back" 3 (Sim.Mem.pages_materialized mem);
  Sim.Mem.fill mem ~off:(3 * page) ~len:10 '\000';
  check_int "so does the short last page" 2 (Sim.Mem.pages_materialized mem);
  check "byte 0 kept" true (Sim.Mem.get_char mem 0 = 'x');
  for off = 1 to (2 * page) do
    if Sim.Mem.get_char mem off <> '\000' then Alcotest.failf "byte %d not zero" off
  done;
  check "untouched tail of page 2 kept" true (Sim.Mem.get_char mem ((2 * page) + 1) = 'x');
  check "short page reads zero" true (Sim.Mem.get_i64 mem (3 * page) = 0L);
  Sim.Mem.set_char mem (page + 5) 'y';
  check_int "a store re-materializes" 3 (Sim.Mem.pages_materialized mem);
  check "fresh page is zero around the store" true
    (Sim.Mem.get_char mem (page + 4) = '\000' && Sim.Mem.get_char mem (page + 5) = 'y');
  let mem = Sim.Mem.create ((2 * dir) + 10) in
  Sim.Mem.fill mem ~off:0 ~len:(Sim.Mem.size mem) 'x';
  check_int "three directories written" 513 (Sim.Mem.pages_materialized mem);
  Sim.Mem.fill mem ~off:(dir - 1) ~len:(dir + 11) '\000';
  check_int "whole directories go back, the partial page stays" 256
    (Sim.Mem.pages_materialized mem);
  check "last byte before the zeros kept" true (Sim.Mem.get_char mem (dir - 2) = 'x');
  check "directory reads zero" true (Sim.Mem.get_i64 mem (dir + 100) = 0L);
  Sim.Mem.set_char mem ((2 * dir) + 9) 'z';
  check_int "a store re-materializes in a returned directory" 257
    (Sim.Mem.pages_materialized mem);
  check "fresh directory is zero around the store" true
    (Sim.Mem.get_char mem ((2 * dir) + 8) = '\000'
    && Sim.Mem.get_char mem ((2 * dir) + 9) = 'z')

let aliases_share_pages_and_watches () =
  let e = Util.engine () in
  let h = Util.host e ~id:0 in
  let mr = Rdma.Mr.register h ~size:(2 * page) ~access:Rdma.Verbs.access_rw in
  let seen = ref [] in
  Rdma.Mr.watch mr ~off:(page - 8) ~len:16 (fun ~off ~len -> seen := (off, len) :: !seen);
  let ro = Rdma.Mr.alias mr ~access:Rdma.Verbs.access_ro in
  Rdma.Mr.set_i64 ro ~off:(page - 4) 42L;
  check "alias store visible through the original" true
    (Rdma.Mr.get_i64 mr ~off:(page - 4) = 42L);
  Rdma.Mr.set_i64 mr ~off:0 1L;
  Rdma.Mr.zero ro ~off:(page + 4) ~len:100;
  Alcotest.(check (list (pair int int)))
    "watch fires for overlapping stores through either MR"
    [ (page - 4, 8); (page + 4, 100) ]
    (List.rev !seen);
  (match Rdma.Mr.get_i64 mr ~off:((2 * page) - 4) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-bounds read accepted");
  match Rdma.Mr.set_bytes mr ~off:((2 * page) - 1) (Bytes.make 2 'x') with
  | exception Invalid_argument _ -> check "failed store fires no watch" true (List.length !seen = 2)
  | () -> Alcotest.fail "out-of-bounds store accepted"

let nvm_region_reopened () =
  let e = Util.engine () in
  let nvm = Sim.Engine.nvm e in
  let size = (2 * page) + 8 in
  let region = Sim.Nvm.region nvm ~owner:5 ~name:"log" ~size in
  let h1 = Util.host e ~id:0 in
  let mr1 = Rdma.Mr.register h1 ~mem:region ~size ~access:Rdma.Verbs.access_rw in
  let old_fired = ref 0 in
  Rdma.Mr.watch mr1 ~off:0 ~len:size (fun ~off:_ ~len:_ -> incr old_fired);
  Rdma.Mr.set_bytes mr1 ~off:(page - 3) (Bytes.of_string "durable");
  Sim.Host.kill_host h1;
  (* The restarted incarnation maps the same region. *)
  let h2 = Util.host e ~id:0 in
  let region' = Sim.Nvm.region nvm ~owner:5 ~name:"log" ~size in
  let mr2 = Rdma.Mr.register h2 ~mem:region' ~size ~access:Rdma.Verbs.access_rw in
  Alcotest.(check string) "bytes survive the restart" "durable"
    (Bytes.to_string (Rdma.Mr.get_bytes mr2 ~off:(page - 3) ~len:7));
  Rdma.Mr.set_i64 mr2 ~off:0 7L;
  check_int "the dead incarnation's watch stays silent" 1 !old_fired;
  check_int "pages written so far" 2 (Sim.Mem.pages_materialized region')

(* The count behind the simulator's resident memory: a 16 384-slot log
   at the slot stride of [value_cap] 1024 (1040 B), every slot holding
   an 82-byte KV entry, materializes only the pages its entries touch,
   at most two per slot. Zeroing it in the recycler's chunks (256 KiB
   of slots, 252 at this stride) returns every page a chunk fully
   covers. *)
let log_footprint_at_slot_stride () =
  let slots = 16_384 and value_cap = 1024 in
  let size = Mu.Log.required_size ~slots ~value_cap in
  let mem = Sim.Mem.create size in
  let e = Util.engine () in
  let mr = Rdma.Mr.register (Util.host e ~id:0) ~mem ~size ~access:Rdma.Verbs.access_rw in
  let log = Mu.Log.attach mr ~slots ~value_cap in
  let stride = Mu.Log.slot_size log and value = Bytes.make 69 'v' in
  check_int "the log stride" 1040 stride;
  let entry = Mu.Log.entry_bytes ~value_len:(Bytes.length value) in
  check_int "82-byte entries" 82 entry;
  let npages = (size + page - 1) / page in
  let written = Array.make npages false and covered = Array.make npages false in
  for idx = 0 to slots - 1 do
    Mu.Log.write_slot_local log idx ~proposal:1L ~value;
    let off = Mu.Log.slot_offset log idx in
    for p = off / page to (off + entry - 1) / page do
      written.(p) <- true
    done
  done;
  let count f =
    let n = ref 0 in
    for p = 0 to npages - 1 do
      if f p then incr n
    done;
    !n
  in
  let pages = Sim.Mem.pages_materialized mem in
  check_int "exactly the pages the entries touch" (count (Array.get written)) pages;
  check "at most two 256-byte pages per written slot" true (pages * page <= 2 * 256 * slots);
  let chunk = 262_144 / stride in
  check_int "the recycler's chunk" 252 chunk;
  let idx = ref 0 in
  while !idx < slots do
    let n = min chunk (slots - !idx) in
    let off = Mu.Log.slot_offset log !idx and len = n * stride in
    Rdma.Mr.zero mr ~off ~len;
    for p = off / page to (off + len - 1) / page do
      if p * page >= off && min size ((p + 1) * page) <= off + len then covered.(p) <- true
    done;
    idx := !idx + n
  done;
  check_int "every page a chunk covers is returned"
    (count (fun p -> written.(p) && not covered.(p)))
    (Sim.Mem.pages_materialized mem)

(* The slab's mechanism as a count: a log written, zeroed in the
   recycler's chunks and written again takes every page of the second
   pass from the pages the zero fills returned. The second pass
   materializes the same pages as the first, allocates no major-heap
   words, and allocates no minor words per page: at most 16 per store,
   which covers the store call's closure and the 64 KiB directories that
   whole-directory zero fills returned and the stores make again. A
   written 64-byte region costs no more than one page. *)
let warm_log_stores_allocate_no_pages () =
  let slots = 16_384 and value_cap = 1024 in
  let size = Mu.Log.required_size ~slots ~value_cap in
  let mem = Sim.Mem.create size in
  let e = Util.engine () in
  let mr = Rdma.Mr.register (Util.host e ~id:0) ~mem ~size ~access:Rdma.Verbs.access_rw in
  let log = Mu.Log.attach mr ~slots ~value_cap in
  let stride = Mu.Log.slot_size log and entry = Bytes.make 82 'v' in
  check_int "the log stride" 1040 stride;
  check_int "82-byte entries" 82 (Mu.Log.entry_bytes ~value_len:69);
  let write () =
    for idx = 0 to slots - 1 do
      Sim.Mem.blit_from_bytes entry 0 mem (Mu.Log.slot_offset log idx) 82
    done
  in
  write ();
  let first = Sim.Mem.pages_materialized mem in
  let chunk = 262_144 / stride in
  check_int "the recycler's chunk" 252 chunk;
  let idx = ref 0 in
  while !idx < slots do
    let n = min chunk (slots - !idx) in
    Sim.Mem.fill mem ~off:(Mu.Log.slot_offset log !idx) ~len:(n * stride) '\000';
    idx := !idx + n
  done;
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  write ();
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  check_int "the second pass materializes the same pages" first
    (Sim.Mem.pages_materialized mem);
  check "no major-heap words" true (major1 -. promoted1 -. (major0 -. promoted0) = 0.);
  check "at most 16 minor words per store" true (minor1 -. minor0 <= 16. *. float_of_int slots);
  let small = Sim.Mem.create 64 in
  Sim.Mem.set_i64 small 8 1L;
  check "a written 64-byte region holds at most 64 words" true
    (Obj.reachable_words (Obj.repr small) <= 64)

let suite =
  [
    ("idle event budget", `Quick, idle_event_budget);
    ("build allocation budget", `Quick, build_allocation_budget);
    ("kv commit allocation budget", `Quick, kv_commit_allocation_budget);
    ("kv fast-forward count", `Quick, kv_fast_forward_count);
    ("replayer applies on its poll grid", `Quick, replayer_applies_on_grid);
    ("permission manager grants on its poll grid", `Quick, permission_manager_grants_on_grid);
    ("pages on demand", `Quick, pages_on_demand);
    ("zero fill returns pages", `Quick, zero_fill_returns_pages);
    ("aliases share pages and watches", `Quick, aliases_share_pages_and_watches);
    ("nvm region reopened after restart", `Quick, nvm_region_reopened);
    QCheck_alcotest.to_alcotest page_store_model;
    ("log footprint at slot stride", `Quick, log_footprint_at_slot_stride);
    ("warm log stores allocate no pages", `Quick, warm_log_stores_allocate_no_pages);
  ]

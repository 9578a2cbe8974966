(* Property-based tests (qcheck): codec roundtrips, order-book invariants,
   a model-based KV check, and — most importantly — the consensus safety
   invariants of Appendix A under randomized fault schedules. *)

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- codecs ---------------------------------------------------------------- *)

let bytes_gen = QCheck.Gen.(map Bytes.of_string (string_size (0 -- 200)))

let log_roundtrip =
  QCheck.Test.make ~name:"log entry roundtrip" ~count:300
    QCheck.(
      make
        ~print:(fun (p, v) -> Printf.sprintf "(%Ld, %S)" p (Bytes.to_string v))
        Gen.(pair (map Int64.of_int (1 -- 1_000_000)) bytes_gen))
    (fun (proposal, value) ->
      let e = Util.engine () in
      let h = Util.host e ~id:0 in
      let mr =
        Rdma.Mr.register h
          ~size:(Mu.Log.required_size ~slots:4 ~value_cap:256)
          ~access:Rdma.Verbs.access_rw
      in
      let log = Mu.Log.attach mr ~slots:4 ~value_cap:256 in
      Mu.Log.write_slot_local log 1 ~proposal ~value;
      match Mu.Log.read_slot log 1 with
      | Some s -> Int64.equal s.Mu.Log.proposal proposal && Bytes.equal s.Mu.Log.value value
      | None -> false)

let batch_roundtrip =
  QCheck.Test.make ~name:"batch framing roundtrip" ~count:300
    QCheck.(
      make
        ~print:(fun l -> String.concat ";" (List.map Bytes.to_string l))
        Gen.(list_size (0 -- 10) bytes_gen))
    (fun payloads ->
      match Mu.Smr.decode_batch (Mu.Smr.encode_batch payloads) with
      | Some got -> List.for_all2 Bytes.equal payloads got
      | None -> false)

let kv_codec_roundtrip =
  let cmd_gen =
    QCheck.Gen.(
      oneof
        [
          map (fun k -> Apps.Kv_store.Get { key = k }) (string_size (0 -- 40));
          map2
            (fun k v -> Apps.Kv_store.Put { key = k; value = v })
            (string_size (0 -- 40)) (string_size (0 -- 120));
          map (fun k -> Apps.Kv_store.Delete { key = k }) (string_size (0 -- 40));
        ])
  in
  QCheck.Test.make ~name:"kv command codec roundtrip" ~count:300
    QCheck.(make cmd_gen)
    (fun cmd ->
      match Apps.Kv_store.decode_command (Apps.Kv_store.encode_command ~client:3 ~req_id:9 cmd) with
      | Some (3, 9, cmd') -> cmd = cmd'
      | _ -> false)

let exchange_codec_roundtrip =
  let side = QCheck.Gen.oneofl [ Apps.Order_book.Buy; Apps.Order_book.Sell ] in
  let cmd_gen =
    QCheck.Gen.(
      oneof
        [
          map3
            (fun id s (p, q) -> Apps.Exchange.Limit { id; side = s; price = p; qty = q })
            (1 -- 100_000) side (pair (1 -- 100_000) (1 -- 10_000));
          map3
            (fun id s q -> Apps.Exchange.Market { id; side = s; qty = q })
            (1 -- 100_000) side (1 -- 10_000);
          map (fun id -> Apps.Exchange.Cancel { id }) (1 -- 100_000);
          map3
            (fun id p q -> Apps.Exchange.Replace { id; price = p; qty = q })
            (1 -- 100_000)
            (option (1 -- 100_000))
            (1 -- 10_000);
        ])
  in
  QCheck.Test.make ~name:"exchange codec roundtrip" ~count:300 (QCheck.make cmd_gen)
    (fun cmd -> Apps.Exchange.decode_command (Apps.Exchange.encode_command cmd) = Some cmd)

(* --- order book invariants --------------------------------------------------- *)

type ob_action = Limit of bool * int * int | Market of bool * int | Cancel_nth of int

let ob_action_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map3 (fun b p q -> Limit (b, p, q)) bool (90 -- 110) (1 -- 30));
        (1, map2 (fun b q -> Market (b, q)) bool (1 -- 20));
        (2, map (fun i -> Cancel_nth i) (0 -- 20));
      ])

let print_action = function
  | Limit (b, p, q) -> Printf.sprintf "Limit(%b,%d,%d)" b p q
  | Market (b, q) -> Printf.sprintf "Market(%b,%d)" b q
  | Cancel_nth i -> Printf.sprintf "Cancel(%d)" i

let side_of b = if b then Apps.Order_book.Buy else Apps.Order_book.Sell

let order_book_invariants =
  QCheck.Test.make ~name:"order book: conservation and uncrossed book" ~count:100
    QCheck.(
      make
        ~print:(fun l -> String.concat "; " (List.map print_action l))
        Gen.(list_size (1 -- 120) ob_action_gen))
    (fun actions ->
      let b = Apps.Order_book.create () in
      let submitted = ref 0 and cancelled = ref 0 in
      let live = ref [] in
      let next_id = ref 0 in
      let count_cancel events =
        List.iter
          (function
            | Apps.Order_book.Cancelled { remaining; _ } -> cancelled := !cancelled + remaining
            | _ -> ())
          events
      in
      List.iter
        (fun a ->
          incr next_id;
          match a with
          | Limit (buy, price, qty) ->
            submitted := !submitted + qty;
            let ev =
              Apps.Order_book.submit_limit b ~id:!next_id ~side:(side_of buy) ~price ~qty
            in
            if List.mem (Apps.Order_book.Accepted { id = !next_id }) ev then
              live := !next_id :: !live
          | Market (buy, qty) ->
            submitted := !submitted + qty;
            let ev = Apps.Order_book.submit_market b ~id:!next_id ~side:(side_of buy) ~qty in
            count_cancel ev;
            List.iter
              (function
                | Apps.Order_book.Rejected _ -> cancelled := !cancelled + qty
                | _ -> ())
              ev
          | Cancel_nth i -> (
            match List.nth_opt !live i with
            | Some id ->
              live := List.filter (fun x -> x <> id) !live;
              count_cancel (Apps.Order_book.cancel b ~id)
            | None -> ()))
        actions;
      let open_qty =
        Apps.Order_book.open_qty b Apps.Order_book.Buy
        + Apps.Order_book.open_qty b Apps.Order_book.Sell
      in
      let conservation =
        !submitted = open_qty + (2 * Apps.Order_book.volume_traded b) + !cancelled
      in
      let uncrossed =
        match Apps.Order_book.best_bid b, Apps.Order_book.best_ask b with
        | Some (bid, _), Some (ask, _) -> bid < ask
        | _ -> true
      in
      conservation && uncrossed)

(* --- KV model check ------------------------------------------------------------ *)

let kv_matches_model =
  QCheck.Test.make ~name:"kv store matches a model" ~count:100
    QCheck.(
      make
        Gen.(
          list_size (1 -- 200)
            (pair (0 -- 2) (pair (string_size (1 -- 4)) (string_size (0 -- 8))))))
    (fun ops ->
      let s = Apps.Kv_store.create () in
      let model : (string, string) Hashtbl.t = Hashtbl.create 16 in
      List.for_all
        (fun (op, (k, v)) ->
          match op with
          | 0 ->
            let got = Apps.Kv_store.apply s (Apps.Kv_store.Get { key = k }) in
            let want =
              match Hashtbl.find_opt model k with
              | Some v -> Apps.Kv_store.Value v
              | None -> Apps.Kv_store.Not_found
            in
            got = want
          | 1 ->
            Hashtbl.replace model k v;
            Apps.Kv_store.apply s (Apps.Kv_store.Put { key = k; value = v })
            = Apps.Kv_store.Stored
          | _ ->
            let existed = Hashtbl.mem model k in
            Hashtbl.remove model k;
            Apps.Kv_store.apply s (Apps.Kv_store.Delete { key = k })
            = (if existed then Apps.Kv_store.Deleted else Apps.Kv_store.Not_found))
        ops)

(* --- consensus safety under random fault schedules ----------------------------- *)

type cluster_action =
  | Propose of int
  | Crash of int
  | Recover of int
  | Wait of int
  | Partition of int  (** cut one replica's replication links *)
  | Heal of int

let print_cluster_action = function
  | Propose i -> Printf.sprintf "Propose(r%d)" i
  | Crash i -> Printf.sprintf "Crash(r%d)" i
  | Recover i -> Printf.sprintf "Recover(r%d)" i
  | Wait us -> Printf.sprintf "Wait(%dus)" us
  | Partition i -> Printf.sprintf "Partition(r%d)" i
  | Heal i -> Printf.sprintf "Heal(r%d)" i

let cluster_action_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun i -> Propose i) (0 -- 2));
        (2, map (fun i -> Crash i) (0 -- 2));
        (2, map (fun i -> Recover i) (0 -- 2));
        (2, map (fun us -> Wait us) (50 -- 2_000));
        (1, map (fun i -> Partition i) (0 -- 2));
        (1, map (fun i -> Heal i) (0 -- 2));
      ])

(* Execute a random schedule of proposes, pauses and resumes (keeping a
   majority alive), then verify agreement (Theorem A.7), validity
   (Theorem A.4) and the no-holes lemma (A.11) across all replicas. *)
let consensus_safety =
  QCheck.Test.make ~name:"consensus safety under random fault schedules" ~count:30
    QCheck.(
      make
        ~print:(fun (seed, l) ->
          Printf.sprintf "seed=%d [%s]" seed
            (String.concat "; " (List.map print_cluster_action l)))
        Gen.(pair (0 -- 10_000) (list_size (1 -- 25) cluster_action_gen)))
    (fun (seed, actions) ->
      let e = Sim.Engine.create ~seed:(Int64.of_int (seed + 1)) () in
      let smr = Util.mu_cluster e in
      let proposed = Hashtbl.create 64 in
      let ok = ref true in
      let paused = Array.make 3 false in
      let cut = Array.make 3 false in
      let paused_count () =
        Array.fold_left (fun a b -> a + if b then 1 else 0) 0 paused
        + Array.fold_left (fun a b -> a + if b then 1 else 0) 0 cut
      in
      let set_links i up =
        let r = Mu.Smr.replica smr i in
        List.iter
          (fun (p : Mu.Replica.peer) -> Rdma.Qp.set_link_up p.Mu.Replica.repl_qp up)
          r.Mu.Replica.peers
      in
      Sim.Engine.spawn e ~name:"schedule" (fun () ->
          Sim.Engine.sleep e 500_000;
          let counter = ref 0 in
          List.iter
            (fun action ->
              match action with
              | Propose i ->
                let r = Mu.Smr.replica smr i in
                if not paused.(i) then begin
                  incr counter;
                  let v = Printf.sprintf "v%d-%d" i !counter in
                  Hashtbl.replace proposed v ();
                  let d = Sim.Engine.Ivar.create e in
                  Sim.Host.spawn r.Mu.Replica.host ~name:"prop" (fun () ->
                      (try ignore (Mu.Replication.propose r (Bytes.of_string v))
                       with Mu.Replication.Aborted _ -> ());
                      Sim.Engine.Ivar.fill d ());
                  Sim.Engine.Ivar.read d
                end
              | Crash i ->
                if (not paused.(i)) && paused_count () = 0 then begin
                  paused.(i) <- true;
                  Sim.Host.pause (Mu.Smr.replica smr i).Mu.Replica.host
                end
              | Recover i ->
                if paused.(i) then begin
                  paused.(i) <- false;
                  Sim.Host.resume (Mu.Smr.replica smr i).Mu.Replica.host
                end
              | Wait us -> Sim.Engine.sleep e (us * 1_000)
              | Partition i ->
                if (not cut.(i)) && (not paused.(i)) && paused_count () = 0 then begin
                  cut.(i) <- true;
                  set_links i false
                end
              | Heal i ->
                if cut.(i) then begin
                  cut.(i) <- false;
                  set_links i true
                end)
            actions;
          (* Let everything settle. *)
          Array.iteri
            (fun i p ->
              if p then begin
                paused.(i) <- false;
                Sim.Host.resume (Mu.Smr.replica smr i).Mu.Replica.host
              end)
            paused;
          Array.iteri
            (fun i c ->
              if c then begin
                cut.(i) <- false;
                set_links i true
              end)
            cut;
          Sim.Engine.sleep e 5_000_000;
          (* The full invariant battery (agreement, no holes, decided at a
             majority, single writer) plus validity of decided values. *)
          let replicas = Mu.Smr.replicas smr in
          if Mu.Invariants.check_all replicas <> [] then ok := false;
          let slot r i =
            Option.map
              (fun (s : Mu.Log.slot) -> Bytes.to_string s.Mu.Log.value)
              (Mu.Log.read_slot r.Mu.Replica.log i)
          in
          Array.iter
            (fun (a : Mu.Replica.t) ->
              for i = a.Mu.Replica.applied to Mu.Log.fuo a.Mu.Replica.log - 1 do
                match slot a i with
                | Some v ->
                  if not (Hashtbl.mem proposed v || v = "") then
                    if Mu.Smr.decode_batch (Bytes.of_string v) <> Some [] then ok := false
                | None -> ok := false
              done)
            replicas;
          Mu.Smr.stop smr;
          Sim.Engine.halt e);
      Sim.Engine.run ~until:300_000_000_000 e;
      !ok)

(* Engine scheduling: events fire in non-decreasing time order, FIFO among
   equal timestamps, regardless of insertion order. *)
let engine_event_order =
  QCheck.Test.make ~name:"engine: event ordering" ~count:200
    QCheck.(make Gen.(list_size (1 -- 60) (0 -- 500)))
    (fun times ->
      let e = Sim.Engine.create ~seed:1L () in
      let fired = ref [] in
      List.iteri
        (fun i at -> Sim.Engine.schedule e ~at (fun () -> fired := (at, i) :: !fired))
        times;
      Sim.Engine.run e;
      let fired = List.rev !fired in
      let rec ordered = function
        | (t1, i1) :: ((t2, i2) :: _ as rest) ->
          (t1 < t2 || (t1 = t2 && i1 < i2)) && ordered rest
        | _ -> true
      in
      List.length fired = List.length times && ordered fired)

(* Event-queue model test (PR 8): random push/pop interleavings checked
   against a sorted reference (a set of (key, seq) pairs), asserting the
   (key, seq) FIFO tie-break total order and payload integrity. Runs the
   same op sequence through both queues — [Sim.Heap], the reference
   heap, and [Sim.Evq], the engine's — so the engine's queue is provably
   order-preserving. Keys are spread across four scales, up to beyond
   2^32. Pushes use a globally monotonic seq, the contract the engine
   provides and Evq's same-instant ring relies on. The other ops aim at
   Evq's clock (the key of the last pop that moved it forward):
   - pushes at the last popped key, which go to the ring;
   - a burst of more than 512 pushes at one key ahead of the clock,
     interleaved with pops: the heap's arrays grow past their initial
     512 entries, only the seq breaks ties, and once the clock reaches
     the key the ring fills behind the heap's entries at it;
   - a push at the clock, then a push, a pop, a push and a pop behind
     it: pops behind the clock must not move it back, or the second
     push would pass the ring;
   - two pushes just ahead of the clock, a pop, then a push at the
     popped key between that pop and the next (the ring waits for the
     heap's other entry at that key);
   - [Evq.due_by] queries against the reference minimum, including just
     before and at the clock right after a push at it. *)
module Ref_queue = Set.Make (struct
  type t = int * int

  let compare (k1, s1) (k2, s2) = if k1 <> k2 then Int.compare k1 k2 else Int.compare s1 s2
end)

let event_queue_matches_reference =
  QCheck.Test.make ~name:"event queue matches sorted-list reference (heap and evq)"
    ~count:150
    QCheck.(make Gen.(list_size (1 -- 150) (pair (0 -- 100) (0 -- 11))))
    (fun ops ->
      let run_backend ?due push pop =
        let reference = ref Ref_queue.empty in
        let seq = ref 0 in
        let ok = ref true in
        let last = ref 0 in
        let do_pop () =
          match pop () with
          | None -> ok := !ok && Ref_queue.is_empty !reference
          | Some (k, s) ->
            ok := !ok && Ref_queue.min_elt_opt !reference = Some (k, s);
            last := k;
            reference := Ref_queue.remove (k, s) !reference
        in
        let do_push key =
          incr seq;
          push ~key ~seq:!seq (key, !seq);
          reference := Ref_queue.add (key, !seq) !reference
        in
        let check_due at =
          match due with
          | None -> ()
          | Some due_by ->
            let expect =
              match Ref_queue.min_elt_opt !reference with Some (key, _) -> key <= at | None -> false
            in
            ok := !ok && due_by at = expect
        in
        List.iter
          (fun (k, tag) ->
            match tag with
            | 0 -> do_push k
            | 1 -> do_push (k * 1_009)
            | 2 -> do_push ((k * 524_287) land 0xFFFFFF)
            | 3 -> do_push (k * 1_000_003 * 4_096) (* beyond 2^32 *)
            | 4 | 5 -> do_pop ()
            | 6 -> do_push !last
            | 7 when k mod 8 = 0 ->
              let key = !last + 1 + k in
              for _ = 1 to 600 do
                do_push key
              done;
              for _ = 1 to 300 do
                do_pop ();
                do_push key
              done
            | 8 when !last >= 2 ->
              let clock = !last in
              do_push clock;
              do_push (clock - 2);
              do_pop ();
              do_push (clock - 1);
              do_pop ()
            | 10 ->
              let ahead = !last + 1 + (k land 7) in
              do_push ahead;
              do_push ahead;
              do_pop ();
              do_push !last;
              do_pop ()
            | 11 ->
              do_push !last;
              check_due (!last - 1);
              check_due !last
            | _ -> check_due (!last + (k * k)))
          ops;
        while (not (Ref_queue.is_empty !reference)) && !ok do
          do_pop ()
        done;
        !ok
      in
      let heap = Sim.Heap.create () in
      let evq = Sim.Evq.create () in
      run_backend (fun ~key ~seq v -> Sim.Heap.push heap ~key ~seq v) (fun () ->
          Sim.Heap.pop heap)
      && run_backend ~due:(Sim.Evq.due_by evq)
           (fun ~key ~seq v -> Sim.Evq.push evq ~key ~seq v)
           (fun () -> Sim.Evq.pop evq))

(* [Evq.due_by] at its edges, spelled out: each key is due from exactly
   that key on, a popped key is no longer due, and a push at the key
   just popped (into the same-instant ring) is due at it and not one
   before. Two entries at 500 leave one in the heap at the clock after
   the first pop: it is due, and it pops before a later ring push. *)
let evq_due_edges () =
  let q = Sim.Evq.create () in
  let seq = ref 0 in
  let push key =
    incr seq;
    Sim.Evq.push q ~key ~seq:!seq key
  in
  let due = Sim.Evq.due_by q in
  let keys = [ 0; 1; 31; 32; 255; 256; 65_536; 1 lsl 33 ] in
  List.iter push (List.rev keys);
  List.iter
    (fun k ->
      if k > 0 && due (k - 1) then Alcotest.failf "due before %d" k;
      if not (due k) then Alcotest.failf "not due at %d" k;
      match Sim.Evq.pop q with
      | Some got when got = k ->
        if due k then Alcotest.failf "popped %d still due" k;
        push k;
        if k > 0 && due (k - 1) then Alcotest.failf "ring push at %d due before it" k;
        if not (due k) then Alcotest.failf "ring push at %d not due" k;
        if Sim.Evq.pop q <> Some k then Alcotest.failf "ring push at %d lost" k
      | _ -> Alcotest.failf "expected %d" k)
    keys;
  Alcotest.(check bool) "drained" true (Sim.Evq.is_empty q && not (due max_int));
  let q = Sim.Evq.create () in
  let due = Sim.Evq.due_by q in
  Sim.Evq.push q ~key:500 ~seq:1 "heap first";
  Sim.Evq.push q ~key:500 ~seq:2 "heap second";
  Alcotest.(check string) "first" "heap first" (Sim.Evq.pop_exn q);
  Alcotest.(check bool) "heap entry at the clock is due" true (due 500 && not (due 499));
  Sim.Evq.push q ~key:500 ~seq:3 "ring";
  Alcotest.(check string) "heap entry at the clock pops before the ring" "heap second"
    (Sim.Evq.pop_exn q);
  Alcotest.(check string) "ring last" "ring" (Sim.Evq.pop_exn q);
  Alcotest.(check bool) "empty" false (due max_int)

(* QP FIFO under randomized payload sizes and timing: writes posted on one
   QP always apply in order, so the last write's value persists and every
   completion arrives in posting order. *)
let qp_fifo_property =
  QCheck.Test.make ~name:"qp: fifo under random sizes" ~count:60
    QCheck.(
      make
        Gen.(pair (0 -- 10_000) (list_size (2 -- 40) (1 -- 512))))
    (fun (seed, sizes) ->
      let result = ref true in
      let e = Sim.Engine.create ~seed:(Int64.of_int (seed + 1)) () in
      Sim.Engine.spawn e ~name:"t" (fun () ->
          let _a, b, qa, _qb, cq_a, _ = Util.qp_pair e in
          let mr = Rdma.Mr.register b ~size:1024 ~access:Rdma.Verbs.access_rw in
          List.iteri
            (fun i len ->
              let payload = Bytes.make len (Char.chr (i mod 256)) in
              Rdma.Qp.post_write qa ~wr_id:i ~src:payload ~src_off:0 ~len ~mr ~dst_off:0)
            sizes;
          let expect = ref 0 in
          List.iter
            (fun _ ->
              let wc = Rdma.Cq.await cq_a in
              if wc.Rdma.Verbs.wr_id <> !expect then result := false;
              incr expect)
            sizes;
          (* Final memory: the last write's byte at offset 0. *)
          let last = List.length sizes - 1 in
          if Rdma.Mr.get_char mr ~off:0 <> Char.chr (last mod 256) then result := false);
      Sim.Engine.run e;
      !result)

(* Whole-run determinism: two simulations from the same seed produce
   byte-identical replica logs — the property that makes every experiment
   in this repository reproducible. *)
let run_determinism =
  QCheck.Test.make ~name:"whole-run determinism by seed" ~count:15
    QCheck.(make Gen.(pair (0 -- 10_000) (2 -- 15)))
    (fun (seed, nreq) ->
      let run () =
        let e = Sim.Engine.create ~seed:(Int64.of_int (seed + 1)) () in
        let smr =
          Mu.Smr.create e Util.default_cal Mu.Config.default ~make_app:(fun _ ->
              Mu.Smr.stateless_app Fun.id)
        in
        Mu.Smr.start smr;
        Sim.Engine.spawn e ~name:"driver" (fun () ->
            Mu.Smr.wait_live smr;
            for i = 1 to nreq do
              ignore (Mu.Smr.submit smr (Bytes.of_string (string_of_int i)))
            done;
            (match Mu.Smr.leader smr with
            | Some l -> Sim.Host.pause l.Mu.Replica.host
            | None -> ());
            ignore (Mu.Smr.submit smr (Bytes.of_string "post-failover"));
            Sim.Engine.sleep e 2_000_000;
            Mu.Smr.stop smr;
            Sim.Engine.halt e);
        Sim.Engine.run ~until:120_000_000_000 e;
        ( Sim.Engine.now e,
          Array.to_list (Mu.Smr.replicas smr)
          |> List.map (fun (r : Mu.Replica.t) ->
                 ( Mu.Log.fuo r.Mu.Replica.log,
                   r.Mu.Replica.applied,
                   let mr = Mu.Log.mr r.Mu.Replica.log in
                   Bytes.to_string (Rdma.Mr.get_bytes mr ~off:0 ~len:(Rdma.Mr.size mr)) )) )
      in
      run () = run ())

(* Cross-validate the linearizability checker against brute-force
   permutation search on tiny histories. *)
let lin_checker_matches_bruteforce =
  let op_gen =
    QCheck.Gen.(
      map3
        (fun proc (inv, dur) kind -> (proc, inv, inv + 1 + dur, kind))
        (1 -- 3)
        (pair (0 -- 20) (0 -- 10))
        (oneof
           [
             return `W;
             map (fun v -> `R (Some (string_of_int v))) (1 -- 3);
             return (`R None);
           ]))
  in
  QCheck.Test.make ~name:"linearizability checker vs brute force" ~count:150
    QCheck.(make Gen.(list_size (1 -- 6) op_gen))
    (fun raw ->
      (* Assign distinct write values; make per-process ops sequential. *)
      let counter = ref 0 in
      let by_proc = Hashtbl.create 4 in
      let ops =
        List.map
          (fun (proc, inv, res, kind) ->
            let last = Option.value (Hashtbl.find_opt by_proc proc) ~default:0 in
            let inv = max inv last + 1 in
            let res = max res (inv + 1) in
            Hashtbl.replace by_proc proc res;
            let kind =
              match kind with
              | `W ->
                incr counter;
                Workload.Linearizability.Write (string_of_int !counter)
              | `R v -> Workload.Linearizability.Read v
            in
            { Workload.Linearizability.proc; invoked = inv; responded = res; key = "k"; kind })
          raw
      in
      (* Brute force: try every permutation respecting real-time order. *)
      let rec permutations = function
        | [] -> [ [] ]
        | l ->
          List.concat_map
            (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( != ) x) l)))
            l
      in
      let respects_realtime seq =
        (* Every pair ordered (x before y) must not contradict real time:
           y finishing before x was invoked forces y first. *)
        let arr = Array.of_list seq in
        let ok = ref true in
        Array.iteri
          (fun i x ->
            Array.iteri
              (fun j y ->
                if i < j
                   && y.Workload.Linearizability.responded
                      < x.Workload.Linearizability.invoked
                then ok := false)
              arr)
          arr;
        !ok
      in
      let valid_sequential seq =
        let rec go state = function
          | [] -> true
          | o :: rest -> (
            match o.Workload.Linearizability.kind with
            | Workload.Linearizability.Write v -> go (Some v) rest
            | Workload.Linearizability.Erase -> go None rest
            | Workload.Linearizability.Read observed -> observed = state && go state rest)
        in
        go None seq
      in
      let brute =
        List.exists (fun p -> respects_realtime p && valid_sequential p) (permutations ops)
      in
      Workload.Linearizability.check ops = brute)

(* The KV reply model against brute force, its sequential spec taken from
   the independent reference model [Modelcheck.Model.Kv]: every order of
   a small single-key put/get/delete history with answered replies that
   respects real time, replayed through [Model.Kv.apply]. *)
let kv_checker_matches_bruteforce =
  let op_gen =
    QCheck.Gen.(
      map3
        (fun proc (inv, dur) kind -> (proc, inv, inv + 1 + dur, kind))
        (1 -- 3)
        (pair (0 -- 20) (0 -- 10))
        (oneof
           [
             return `Put;
             map (fun v -> `Get (if v = 0 then None else Some (string_of_int v))) (0 -- 3);
             map (fun deleted -> `Delete deleted) bool;
           ]))
  in
  QCheck.Test.make ~name:"kv reply checker vs brute force" ~count:150
    QCheck.(make Gen.(list_size (1 -- 6) op_gen))
    (fun raw ->
      (* Distinct put values and request ids; per-process ops sequential. *)
      let counter = ref 0 in
      let by_proc = Hashtbl.create 4 in
      let records =
        List.map
          (fun (proc, inv, res, kind) ->
            let last = Option.value (Hashtbl.find_opt by_proc proc) ~default:0 in
            let inv = max inv last + 1 in
            let res = max res (inv + 1) in
            Hashtbl.replace by_proc proc res;
            incr counter;
            let cmd, reply =
              match kind with
              | `Put ->
                (Apps.Kv_store.Put { key = "k"; value = string_of_int !counter }, Apps.Kv_store.Stored)
              | `Get v ->
                ( Apps.Kv_store.Get { key = "k" },
                  match v with Some v -> Apps.Kv_store.Value v | None -> Apps.Kv_store.Not_found )
              | `Delete deleted ->
                ( Apps.Kv_store.Delete { key = "k" },
                  if deleted then Apps.Kv_store.Deleted else Apps.Kv_store.Not_found )
            in
            {
              Workload.Chaos.r_proc = proc;
              r_req = !counter;
              r_invoked = inv;
              r_responded = res;
              r_cmd = cmd;
              r_reply = Some reply;
            })
          raw
      in
      let rec permutations = function
        | [] -> [ [] ]
        | l ->
          List.concat_map
            (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( != ) x) l)))
            l
      in
      let rec respects_realtime = function
        | [] -> true
        | (x : Workload.Chaos.recorded) :: rest ->
          List.for_all (fun (y : Workload.Chaos.recorded) -> y.r_responded >= x.r_invoked) rest
          && respects_realtime rest
      in
      let replays seq =
        let rec go model = function
          | [] -> true
          | (r : Workload.Chaos.recorded) :: rest ->
            let model, reply = Modelcheck.Model.Kv.apply model ~client:r.r_proc ~req_id:r.r_req r.r_cmd in
            Some reply = r.r_reply && go model rest
        in
        go Modelcheck.Model.Kv.empty seq
      in
      let brute =
        List.exists (fun p -> respects_realtime p && replays p) (permutations records)
      in
      Workload.Chaos.check records = brute)

let suite =
  List.map to_alcotest
    [
      log_roundtrip;
      batch_roundtrip;
      kv_codec_roundtrip;
      exchange_codec_roundtrip;
      order_book_invariants;
      kv_matches_model;
      engine_event_order;
      event_queue_matches_reference;
      run_determinism;
      qp_fifo_property;
      lin_checker_matches_bruteforce;
      consensus_safety;
      kv_checker_matches_bruteforce;
    ]
  @ [ ("evq due_by edges and the ring", `Quick, evq_due_edges) ]

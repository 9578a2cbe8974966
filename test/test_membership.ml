(* Tests for membership changes (§5.4): removing and adding replicas via
   configuration entries and checkpoint transfer. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_smr ?(make_app = fun _ -> Apps.Kv_store.smr_app ()) f =
  let e = Util.engine () in
  let smr = Mu.Smr.create e Util.default_cal Mu.Config.default ~make_app in
  Mu.Smr.start smr;
  let result = ref None in
  Sim.Engine.spawn e ~name:"driver" (fun () ->
      result := Some (f e smr);
      Mu.Smr.stop smr;
      Sim.Engine.halt e);
  Sim.Engine.run ~until:120_000_000_000 e;
  match !result with Some r -> r | None -> Alcotest.fail "scenario did not finish"

let put smr k v i =
  ignore
    (Mu.Smr.submit smr
       (Apps.Kv_store.encode_command ~client:1 ~req_id:i
          (Apps.Kv_store.Put { key = k; value = v })))

let get smr k i =
  match
    Apps.Kv_store.decode_reply
      (Mu.Smr.submit smr
         (Apps.Kv_store.encode_command ~client:1 ~req_id:i (Apps.Kv_store.Get { key = k })))
  with
  | Some (Apps.Kv_store.Value v) -> Some v
  | _ -> None

let remove_follower () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      put smr "a" "1" 1;
      Mu.Smr.remove_replica smr ~id:2;
      let r2 = Mu.Smr.replica smr 2 in
      Util.wait_for (fun () -> r2.Mu.Replica.removed) e;
      check "r2 stopped" true r2.Mu.Replica.stop;
      (* The survivors keep working as a 2-group. *)
      put smr "b" "2" 2;
      Alcotest.(check (option string)) "state intact" (Some "2") (get smr "b" 3);
      let r0 = Mu.Smr.replica smr 0 in
      check_int "r0 now has one peer" 1 (List.length r0.Mu.Replica.peers))

let removed_replica_ignored_by_election () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      Mu.Smr.remove_replica smr ~id:2;
      let r2 = Mu.Smr.replica smr 2 in
      Util.wait_for (fun () -> r2.Mu.Replica.removed) e;
      Sim.Engine.sleep e 3_000_000;
      let r0 = Mu.Smr.replica smr 0 in
      check "r0 still leads" true (Mu.Replica.is_leader r0);
      check "r2 not in alive table" true (not (Mu.Replica.Itbl.mem r0.Mu.Replica.alive 2)))

let add_replica_receives_state () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      for i = 1 to 5 do
        put smr (Printf.sprintf "k%d" i) (Printf.sprintf "v%d" i) i
      done;
      let newcomer = Mu.Smr.add_replica smr () in
      check_int "new id" 3 newcomer.Mu.Replica.id;
      (* New writes replicate to the newcomer too. *)
      put smr "after" "join" 6;
      put smr "after2" "join2" 7;
      Util.wait_for
        (fun () ->
          match Mu.Log.read_slot newcomer.Mu.Replica.log (Mu.Log.fuo newcomer.Mu.Replica.log) with
          | Some _ -> true
          | None -> newcomer.Mu.Replica.applied > 5)
        e;
      Sim.Engine.sleep e 3_000_000;
      check "newcomer applying" true (newcomer.Mu.Replica.applied > 0);
      ignore e)

(* The newcomer runs its own application object: a counting app (its
   reply is its apply count) answers every submit after the join with the
   next number, and replica 0's object is applied once per commit. *)
let newcomer_gets_own_app () =
  let counts = Array.make 8 0 in
  let make_app id =
    {
      Mu.Smr.apply =
        (fun _ ->
          counts.(id) <- counts.(id) + 1;
          Bytes.of_string (string_of_int counts.(id)));
      snapshot = (fun () -> Bytes.of_string (string_of_int counts.(id)));
      install = (fun b -> counts.(id) <- int_of_string (Bytes.to_string b));
    }
  in
  with_smr ~make_app (fun e smr ->
      Mu.Smr.wait_live smr;
      let submit i = Bytes.to_string (Mu.Smr.submit smr (Bytes.of_string (string_of_int i))) in
      for i = 1 to 5 do
        ignore (submit i)
      done;
      let newcomer = Mu.Smr.add_replica smr () in
      let replies = List.init 10 (fun i -> submit (6 + i)) in
      Alcotest.(check (list string))
        "consecutive replies after the join"
        (List.init 10 (fun i -> string_of_int (6 + i)))
        replies;
      check_int "one apply per commit on replica 0" 15 counts.(0);
      (* A follower applies up to the FUO it has seen, one entry behind
         the leader until the next accept. *)
      Util.wait_for
        (fun () -> counts.(1) >= 14 && counts.(newcomer.Mu.Replica.id) = counts.(1))
        e)

let add_then_remove_leader_failover () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      put smr "x" "1" 1;
      let _newcomer = Mu.Smr.add_replica smr () in
      put smr "y" "2" 2;
      (* Now kill the leader; the 4-group must elect replica 1 and keep
         serving. *)
      let r0 = Mu.Smr.replica smr 0 in
      Sim.Host.pause r0.Mu.Replica.host;
      Alcotest.(check (option string)) "served after failover" (Some "2") (get smr "y" 3);
      Sim.Host.resume r0.Mu.Replica.host;
      ignore e)

(* §5.4 under an asymmetric partition: host 1 cannot hear host 2 (so its
   failure detector scores 2 dead) while the leader still reaches both.
   Remove and add still commit through the leader's quorum — membership
   changes don't require symmetric connectivity. *)
let membership_changes_under_asymmetric_partition () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      put smr "a" "1" 1;
      let f = Sim.Engine.fabric e in
      Sim.Fabric.block f ~src:2 ~dst:1;
      Mu.Smr.remove_replica smr ~id:2;
      let r2 = Mu.Smr.replica smr 2 in
      Util.wait_for (fun () -> r2.Mu.Replica.removed) e;
      put smr "b" "2" 2;
      Alcotest.(check (option string)) "2-group serves" (Some "2") (get smr "b" 3);
      (* Growing the cluster works under the same stale half-link. *)
      let newcomer = Mu.Smr.add_replica smr () in
      check_int "new id" 3 newcomer.Mu.Replica.id;
      put smr "c" "3" 4;
      put smr "d" "4" 5;
      Util.wait_for (fun () -> newcomer.Mu.Replica.applied > 0) e;
      Sim.Fabric.unblock f ~src:2 ~dst:1;
      check "no invariant violations" true
        (Mu.Invariants.check_all
           (Array.of_list
              (List.filter
                 (fun (r : Mu.Replica.t) -> not r.Mu.Replica.removed)
                 (Array.to_list (Mu.Smr.replicas smr))))
        = []))

(* A *removed* replica rejoining under its old id goes through the
   re-admission path: a §5.4 Add configuration entry commits before the
   rejoin pipeline runs, and the new incarnation is a member again. *)
let removed_replica_rejoins_same_id () =
  with_smr (fun e smr ->
      Mu.Smr.wait_live smr;
      for i = 1 to 5 do
        put smr (Printf.sprintf "k%d" i) "v" i
      done;
      Mu.Smr.remove_replica smr ~id:2;
      let r2 = Mu.Smr.replica smr 2 in
      Util.wait_for (fun () -> r2.Mu.Replica.removed) e;
      put smr "while-out" "w" 6;
      Mu.Smr.restart_replica smr ~id:2;
      Util.wait_for (fun () -> Mu.Smr.rejoins smr <> []) e;
      let r2' = Mu.Smr.replica smr 2 in
      check "fresh incarnation" true (r2' != r2);
      check "no longer removed" true (not r2'.Mu.Replica.removed);
      check "member again on the leader" true
        (List.exists
           (fun (p : Mu.Replica.peer) -> p.Mu.Replica.pid = 2)
           (Mu.Smr.replica smr 0).Mu.Replica.peers);
      let rj = List.hd (Mu.Smr.rejoins smr) in
      check "caught up the history decided while out" true
        (rj.Mu.Smr.entries_pulled > 0);
      (* It participates again: new writes reach its log (a follower's
         FUO trails the last commit by one until the next accept, so the
         target is a captured FUO, pushed over by one more write). *)
      put smr "after" "rejoin" 7;
      let l () = Option.get (Mu.Smr.serving_leader smr) in
      let target = Mu.Log.fuo (l ()).Mu.Replica.log in
      put smr "post" "x" 8;
      Util.wait_for (fun () -> Mu.Log.fuo r2'.Mu.Replica.log >= target) e)

let suite =
  [
    ("remove follower", `Quick, remove_follower);
    ("removed replica ignored by election", `Quick, removed_replica_ignored_by_election);
    ("add replica receives state", `Quick, add_replica_receives_state);
    ("newcomer gets its own app", `Quick, newcomer_gets_own_app);
    ("add then remove leader failover", `Quick, add_then_remove_leader_failover);
    ( "membership changes under asymmetric partition",
      `Quick,
      membership_changes_under_asymmetric_partition );
    ("removed replica rejoins same id", `Quick, removed_replica_rejoins_same_id);
  ]

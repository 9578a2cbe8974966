type fault = {
  mutable blocked : bool;
  mutable extra_delay : int;
  mutable loss : float;
  mutable dup : float;
}

type t = {
  links : (int * int, fault) Hashtbl.t;
  perm_fail : (int, unit) Hashtbl.t;
}

let create () = { links = Hashtbl.create 16; perm_fail = Hashtbl.create 4 }

let find t ~src ~dst =
  if Hashtbl.length t.links = 0 then None else Hashtbl.find_opt t.links (src, dst)

let edit t ~src ~dst =
  match Hashtbl.find_opt t.links (src, dst) with
  | Some f -> f
  | None ->
    let f = { blocked = false; extra_delay = 0; loss = 0.; dup = 0. } in
    Hashtbl.replace t.links (src, dst) f;
    f

(* Entries that carry no fault are removed so [find] (and therefore the hot
   post path) stays on its empty-table fast path after a heal. *)
let gc t ~src ~dst =
  match Hashtbl.find_opt t.links (src, dst) with
  | Some f when (not f.blocked) && f.extra_delay = 0 && f.loss = 0. && f.dup = 0. ->
    Hashtbl.remove t.links (src, dst)
  | Some _ | None -> ()

let block t ~src ~dst = (edit t ~src ~dst).blocked <- true

let unblock t ~src ~dst =
  (match Hashtbl.find_opt t.links (src, dst) with
  | Some f -> f.blocked <- false
  | None -> ());
  gc t ~src ~dst

let set_delay t ~src ~dst ns =
  if ns < 0 then invalid_arg "Fabric.set_delay: negative delay";
  (edit t ~src ~dst).extra_delay <- ns;
  gc t ~src ~dst

let check_prob name p =
  if not (p >= 0. && p <= 1.) then invalid_arg (name ^ ": probability outside [0,1]")

let set_loss t ~src ~dst p =
  check_prob "Fabric.set_loss" p;
  (edit t ~src ~dst).loss <- p;
  gc t ~src ~dst

let set_dup t ~src ~dst p =
  check_prob "Fabric.set_dup" p;
  (edit t ~src ~dst).dup <- p;
  gc t ~src ~dst

let partition t a b =
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          if x <> y then begin
            block t ~src:x ~dst:y;
            block t ~src:y ~dst:x
          end)
        b)
    a

let heal t = Hashtbl.reset t.links

let force_perm_failure t ~pid forced =
  if forced then Hashtbl.replace t.perm_fail pid ()
  else Hashtbl.remove t.perm_fail pid

let perm_failure_forced t ~pid =
  Hashtbl.length t.perm_fail > 0 && Hashtbl.mem t.perm_fail pid

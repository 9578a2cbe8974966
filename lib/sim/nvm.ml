(* Simulated non-volatile memory: named byte regions keyed by owner id
   that survive host crashes. A host's volatile state dies with
   [Host.kill_host]; regions in this store belong to the *machine
   identity* (the replica id), so a restarted host re-opens them and
   finds the bytes its previous incarnation wrote.

   Write-through is modelled by handing out the region's memory
   directly (see [Rdma.Mr.register ~mem]): every store into the mapped
   region *is* a store into NVM, with no copy and no extra virtual time.
   Regions are zero-on-demand [Mem] pages, so a large log region costs
   nothing until it is written. Latency of flushing to the persistence
   domain is modelled separately ([Calibration.pmem_flush], used by the
   persistent-log path); this module is only about survival. *)

type t = { regions : (int * string, Mem.t) Hashtbl.t; mutable namespaces : int }

let create () = { regions = Hashtbl.create 16; namespaces = 0 }

let fresh_namespace t =
  let ns = t.namespaces in
  t.namespaces <- ns + 1;
  ns

let region t ~owner ~name ~size =
  if size <= 0 then invalid_arg "Nvm.region: size must be positive";
  match Hashtbl.find_opt t.regions (owner, name) with
  | Some m ->
    if Mem.size m <> size then
      invalid_arg
        (Printf.sprintf "Nvm.region: %s/%d exists with size %d, requested %d" name owner
           (Mem.size m) size);
    m
  | None ->
    let m = Mem.create size in
    Hashtbl.replace t.regions (owner, name) m;
    m

let mem t ~owner ~name = Hashtbl.mem t.regions (owner, name)

let erase t ~owner ~name = Hashtbl.remove t.regions (owner, name)

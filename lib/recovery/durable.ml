(* Durable-state layout for a replica: which NVM regions it keeps and
   what lives in them.

   - [log_region]: the consensus log MR is registered directly over this
     region (write-through by construction), so every slot write and the
     FUO/minProposal header survive a crash.
   - [meta_region]: the membership configuration as last known to this
     replica, rewritten on every wiring change (§5.4 config entries are
     also in the log). A rebooting replica does not read it: the restart
     path rebuilds membership from the survivors ([Smr.restart_fiber],
     step 3).

   The meta codec is deliberately tiny and versioned by a magic byte so
   a region from an incompatible build decodes to [None] instead of
   garbage. *)

let log_region = "mu-log"
let meta_region = "mu-meta"

(* meta layout: magic byte, u8 member count, then u32le member ids. *)
let meta_magic = '\xB5' (* "µ" in latin-1 *)

let meta_size = 2 + (4 * 64)

let write_members region members =
  let members = List.sort_uniq compare members in
  if List.length members > 64 then invalid_arg "Durable.write_members: too many members";
  Sim.Mem.fill region ~off:0 ~len:(Sim.Mem.size region) '\000';
  Sim.Mem.set_char region 0 meta_magic;
  Sim.Mem.set_char region 1 (Char.chr (List.length members));
  List.iteri (fun i id -> Sim.Mem.set_i32 region (2 + (4 * i)) (Int32.of_int id)) members

let read_members region =
  if Sim.Mem.size region < 2 || Sim.Mem.get_char region 0 <> meta_magic then None
  else begin
    let count = Char.code (Sim.Mem.get_char region 1) in
    if Sim.Mem.size region < 2 + (4 * count) then None
    else
      Some (List.init count (fun i -> Int32.to_int (Sim.Mem.get_i32 region (2 + (4 * i)))))
  end

(* Open (or re-open) a replica's durable regions. *)
let log_backing nvm ~owner ~size = Sim.Nvm.region nvm ~owner ~name:log_region ~size

let meta_backing nvm ~owner = Sim.Nvm.region nvm ~owner ~name:meta_region ~size:meta_size

let has_durable_state nvm ~owner = Sim.Nvm.mem nvm ~owner ~name:log_region
